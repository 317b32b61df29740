package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"swrec/internal/attack"
	"swrec/internal/metrics"
)

// LatencyReport is the human-readable latency block for one series.
type LatencyReport struct {
	Requests uint64  `json:"requests"`
	P50MS    float64 `json:"p50Ms"`
	P99MS    float64 `json:"p99Ms"`
	P999MS   float64 `json:"p999Ms"`
	MaxMS    float64 `json:"maxMs"`
	MeanMS   float64 `json:"meanMs"`
}

func latencyReport(h *metrics.Histogram) LatencyReport {
	s := h.Summary()
	return LatencyReport{
		Requests: s.Count,
		P50MS:    ms(s.P50),
		P99MS:    ms(s.P99),
		P999MS:   ms(s.P999),
		MaxMS:    ms(s.Max),
		MeanMS:   ms(s.Mean()),
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// EndpointReport is one endpoint's outcome.
type EndpointReport struct {
	LatencyReport
	Statuses      map[string]uint64 `json:"statuses"`
	TransportErrs uint64            `json:"transportErrors,omitempty"`
	ErrorRate     float64           `json:"errorRate"`
}

// AttackReport pairs one attack's confinement numbers with its bounds.
// The embedded Confinement is measured under the serving default
// (similarity-blended weighting over the bounded neighborhood) and is
// what the Spec bounds are asserted against; TrustGated (weighting
// pinned to alpha=1 via the API override) is reported and drift-tracked
// beside it. The two used to differ by an order of magnitude — cloned
// profiles bought similarity weight the trust metric denied them — until
// the trust floor kept zero-rank peers out of the similarity stage (see
// DESIGN.md §10, EXPERIMENTS.md E12).
type AttackReport struct {
	attack.Confinement
	TrustGated attack.Confinement `json:"trustGated"`
	Spec       attack.Spec        `json:"spec"`
	Violations []string           `json:"violations,omitempty"`
}

// Report is the BENCH_load.json artifact. Everything benchjson gates
// lives in the flat Metrics map; the structured blocks are for humans
// reading the file.
type Report struct {
	Kind            string  `json:"kind"` // "load"
	Scenario        string  `json:"scenario"`
	Seed            int64   `json:"seed"`
	PlanFingerprint string  `json:"planFingerprint"`
	Agents          int     `json:"agents"`
	Products        int     `json:"products"`
	Events          int     `json:"events"`
	Completed       int     `json:"completed"`
	Concurrency     int     `json:"concurrency"`
	Pacing          string  `json:"pacing"`
	WallSeconds     float64 `json:"wallSeconds"`

	Endpoints map[string]EndpointReport `json:"endpoints"`
	Rungs     map[string]LatencyReport  `json:"rungs"`
	Attacks   []AttackReport            `json:"attacks,omitempty"`

	Overloaded    uint64 `json:"overloaded,omitempty"`
	RetryAfterMin int    `json:"retryAfterMin,omitempty"`
	RetryAfterMax int    `json:"retryAfterMax,omitempty"`

	Violations []Violation `json:"sloViolations"`

	Metrics map[string]float64 `json:"metrics"`
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// BuildReport assembles the artifact from a run's measurements plus the
// attack confinement results.
func BuildReport(sc *Scenario, events []Event, res *RunResult, attacks []AttackReport) *Report {
	cfg := sc.DatagenConfig()
	rep := &Report{
		Kind:            "load",
		Scenario:        sc.Name,
		Seed:            sc.Seed,
		PlanFingerprint: Fingerprint(events),
		Agents:          cfg.Agents,
		Products:        cfg.Products,
		Events:          len(events),
		Completed:       res.Completed,
		Concurrency:     sc.Workload.Concurrency,
		Pacing:          sc.Workload.Pacing,
		WallSeconds:     res.Wall.Seconds(),
		Endpoints:       make(map[string]EndpointReport),
		Rungs:           make(map[string]LatencyReport),
		Attacks:         attacks,
		Overloaded:      res.Overloaded,
		RetryAfterMin:   res.RetryAfterMin,
		RetryAfterMax:   res.RetryAfterMax,
		Violations:      sc.SLO.Check(res),
		Metrics:         make(map[string]float64),
	}
	if rep.Violations == nil {
		rep.Violations = []Violation{}
	}

	var overall metrics.Histogram
	var overallTotal, overallErrs uint64
	for _, ep := range sortedKeys(res.Endpoints) {
		st := res.Endpoints[ep]
		b := sc.SLO.budgetFor(ep)
		er := EndpointReport{
			LatencyReport: latencyReport(&st.Hist),
			Statuses:      make(map[string]uint64, len(st.Statuses)),
			TransportErrs: st.TransportErrs,
		}
		var total, errs uint64
		for code, n := range st.Statuses {
			er.Statuses[fmt.Sprintf("%d", code)] = n
			total += n
			if code >= 400 && !statusIn(b.Expected, code) {
				errs += n
			}
		}
		total += st.TransportErrs
		errs += st.TransportErrs
		if total > 0 {
			er.ErrorRate = float64(errs) / float64(total)
		}
		rep.Endpoints[ep] = er
		overall.Merge(&st.Hist)
		overallTotal += total
		overallErrs += errs

		rep.Metrics[ep+".p50_ms"] = er.P50MS
		rep.Metrics[ep+".p99_ms"] = er.P99MS
		rep.Metrics[ep+".p999_ms"] = er.P999MS
		rep.Metrics[ep+".error_rate"] = er.ErrorRate
	}
	ov := latencyReport(&overall)
	rep.Metrics["overall.p50_ms"] = ov.P50MS
	rep.Metrics["overall.p99_ms"] = ov.P99MS
	rep.Metrics["overall.p999_ms"] = ov.P999MS
	if overallTotal > 0 {
		rep.Metrics["overall.error_rate"] = float64(overallErrs) / float64(overallTotal)
	} else {
		rep.Metrics["overall.error_rate"] = 0
	}

	for rung, h := range res.Rungs {
		rep.Rungs[rung] = latencyReport(h)
		rep.Metrics["rung."+rung+".p99_ms"] = rep.Rungs[rung].P99MS
	}
	for _, ar := range attacks {
		pfx := "attack." + string(ar.Kind)
		rep.Metrics[pfx+".energy_share"] = ar.EnergyShare
		rep.Metrics[pfx+".max_rank_perturbation"] = float64(ar.TrustGated.MaxRankPerturbation)
		rep.Metrics[pfx+".pushed_rate"] = ar.TrustGated.PushedRate
		rep.Metrics[pfx+".blend_max_rank_perturbation"] = float64(ar.MaxRankPerturbation)
		rep.Metrics[pfx+".blend_pushed_rate"] = ar.PushedRate
	}
	rep.Metrics["slo.violations"] = float64(len(rep.Violations))
	return rep
}

// WriteFile writes the artifact with stable formatting.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
