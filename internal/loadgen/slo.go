package loadgen

import "fmt"

// Budget is the SLO for one endpoint series. Latency bounds are
// milliseconds; zero disables that bound.
type Budget struct {
	P50MS  float64 `json:"p50ms,omitempty"`
	P99MS  float64 `json:"p99ms,omitempty"`
	P999MS float64 `json:"p999ms,omitempty"`
	// MaxErrorRate bounds the fraction of responses whose status is
	// neither a success nor in Expected.
	MaxErrorRate float64 `json:"maxErrorRate,omitempty"`
	// Allowed is the status-set invariant: any response outside it is a
	// violation regardless of rate. Defaults depend on the endpoint
	// class (reads vs writes).
	Allowed []int `json:"allowed,omitempty"`
	// Expected lists non-2xx statuses that are part of normal operation
	// (404 for churned-away agents, 503 under declared overload) and so
	// do not count toward the error rate.
	Expected []int `json:"expected,omitempty"`
}

// SLO declares the budgets a run must meet. PerEndpoint entries
// override Default field-by-field only where set.
type SLO struct {
	Default     Budget            `json:"default"`
	PerEndpoint map[string]Budget `json:"perEndpoint,omitempty"`
}

// Violation is one SLO breach, flattened for the report.
type Violation struct {
	Endpoint string  `json:"endpoint"`
	Metric   string  `json:"metric"`
	Got      float64 `json:"got"`
	Limit    float64 `json:"limit"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s %.3f exceeds %.3f", v.Endpoint, v.Metric, v.Got, v.Limit)
}

// Status-set defaults. Reads can 200, miss on churned agents (404), or
// time out against the ladder (504); writes ack (202), reject invalid
// or not-yet-visible subjects (400/404), or shed load (503).
var (
	readAllowed  = []int{200, 404, 504}
	writeAllowed = []int{202, 400, 404, 503}
)

func isWriteEndpoint(ep string) bool {
	switch ep {
	case EpWriteTrust, EpWriteRating, EpWriteJoin, EpWriteLeave:
		return true
	}
	return false
}

// normalize fills class-appropriate Allowed/Expected defaults so
// scenario files only state deviations.
func (s *SLO) normalize() {
	if s.PerEndpoint == nil {
		s.PerEndpoint = map[string]Budget{}
	}
}

// budgetFor merges the per-endpoint override onto the default.
func (s *SLO) budgetFor(ep string) Budget {
	b := s.Default
	if o, ok := s.PerEndpoint[ep]; ok {
		if o.P50MS > 0 {
			b.P50MS = o.P50MS
		}
		if o.P99MS > 0 {
			b.P99MS = o.P99MS
		}
		if o.P999MS > 0 {
			b.P999MS = o.P999MS
		}
		if o.MaxErrorRate > 0 {
			b.MaxErrorRate = o.MaxErrorRate
		}
		if len(o.Allowed) > 0 {
			b.Allowed = o.Allowed
		}
		if len(o.Expected) > 0 {
			b.Expected = o.Expected
		}
	}
	if len(b.Allowed) == 0 {
		if isWriteEndpoint(ep) {
			b.Allowed = writeAllowed
		} else {
			b.Allowed = readAllowed
		}
	}
	if len(b.Expected) == 0 {
		if isWriteEndpoint(ep) {
			b.Expected = []int{404, 503}
		} else {
			b.Expected = []int{404}
		}
	}
	return b
}

func statusIn(set []int, code int) bool {
	for _, s := range set {
		if s == code {
			return true
		}
	}
	return false
}

// Check evaluates every endpoint series in res against the SLO and
// returns all breaches (nil means full compliance).
func (s *SLO) Check(res *RunResult) []Violation {
	var out []Violation
	for _, ep := range sortedKeys(res.Endpoints) {
		st := res.Endpoints[ep]
		b := s.budgetFor(ep)
		lat := latencyReport(&st.Hist)
		if b.P50MS > 0 && lat.P50MS > b.P50MS {
			out = append(out, Violation{ep, "p50_ms", lat.P50MS, b.P50MS})
		}
		if b.P99MS > 0 && lat.P99MS > b.P99MS {
			out = append(out, Violation{ep, "p99_ms", lat.P99MS, b.P99MS})
		}
		if b.P999MS > 0 && lat.P999MS > b.P999MS {
			out = append(out, Violation{ep, "p999_ms", lat.P999MS, b.P999MS})
		}

		var total, errs, outside uint64
		for code, n := range st.Statuses {
			total += n
			if !statusIn(b.Allowed, code) {
				outside += n
			}
			if code >= 400 && !statusIn(b.Expected, code) {
				errs += n
			}
		}
		// Transport-level failures count as both error and status-set
		// breach: a load generator that can't even get a status back is
		// seeing something worse than any HTTP error.
		total += st.TransportErrs
		errs += st.TransportErrs
		outside += st.TransportErrs
		if outside > 0 {
			out = append(out, Violation{ep, "status_outside_allowed", float64(outside), 0})
		}
		if total > 0 {
			rate := float64(errs) / float64(total)
			if rate > b.MaxErrorRate {
				out = append(out, Violation{ep, "error_rate", rate, b.MaxErrorRate})
			}
		}
	}
	return out
}
