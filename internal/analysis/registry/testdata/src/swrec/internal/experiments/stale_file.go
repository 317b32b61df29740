package experiments

//swrecvet:disable detrand -- nothing in this file reads the clock // want `stale suppression: no detrand diagnostic fires anywhere in the file`

func Pure(x int) int { return x + 1 }
