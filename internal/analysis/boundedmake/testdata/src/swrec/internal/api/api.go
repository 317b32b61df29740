// Package api is a fixture miniature of the HTTP layer: a query
// parameter is a count anyone can send, so it must be bounded before it
// sizes an allocation, exactly like a length field in a frame.
package api

import "strconv"

type topicScore struct {
	Topic string
	Score float64
}

// intParam stands for the handler helper that parses ?n=.
func intParam(raw string, def int) (int, error) {
	if raw == "" {
		return def, nil
	}
	return strconv.Atoi(raw)
}

// ServeProfileUnbounded is the bug this package entered the analyzer's
// scope for: ?n=4611686018427387904 reached make as a capacity.
func ServeProfileUnbounded(raw string, prof map[int32]float64) []topicScore {
	n, err := intParam(raw, 15)
	if err != nil {
		return nil
	}
	return make([]topicScore, 0, n) // want `make sized from unvalidated n`
}

// ServeProfileClamped bounds the parameter by data already in memory —
// silent: min is as bounded as its most bounded operand.
func ServeProfileClamped(raw string, prof map[int32]float64) []topicScore {
	n, err := intParam(raw, 15)
	if err != nil {
		return nil
	}
	return make([]topicScore, 0, min(n, len(prof)))
}

// ServeProfileClampedVar takes the clamp through a variable — silent.
func ServeProfileClampedVar(raw string, prof map[int32]float64) []topicScore {
	n, err := intParam(raw, 15)
	if err != nil {
		return nil
	}
	k := min(len(prof), n)
	return make([]topicScore, 0, k)
}

// ServeTwoParams takes the smaller of two client-chosen numbers: still
// client-chosen.
func ServeTwoParams(rawN, rawLimit string) []topicScore {
	n, _ := intParam(rawN, 15)
	limit, _ := intParam(rawLimit, 50)
	return make([]topicScore, 0, min(n, limit)) // want `make sized from unvalidated min\(\) result`
}

// ServeWindow sizes the page from the slice it was cut from — silent.
func ServeWindow(ids []string, lo, hi int) []topicScore {
	shown := ids[lo:hi]
	return make([]topicScore, 0, len(shown))
}
