package experiments

//swrecvet:disable detrand -- covers the clock read below

import "time"

func Clock() time.Time { return time.Now() }
