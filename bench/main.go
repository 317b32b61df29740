// Command bench is the repository's benchmark: four single-client
// workloads against the real api.Server handler, in process, over a
// seeded datagen community. See README.md for the rules it follows and
// how to read its output.
//
//	go run -C bench . --workload warm-read --seed 1117 --seconds 20 --trace 0
//	go run -C bench .                # all four workloads, one process each
//	go run -C bench . --trace 1      # the same plans with per-layer spans
//	go run -C bench . --selfcheck    # A,B,B,A repeatability check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a caller of the service sees; every workload
// reports every one (what the phase and an operation are per workload is
// in README.md). The timing bounds are the widest the driver allows:
// ten seeds of identical code spread 2-8 % on this box while it is
// quiet and 10-30 % when one of its slow episodes falls among the ten.
// The heap's bound is three times its widest spread across seeds
// (README, "Noise on this box").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p90_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.10},
}

// workload is one entry of the benchmark.
type workload struct {
	name string
	why  string
	run  func(*run) error
}

var workloads = []workload{
	{"warm-read", "2,000 agents, every answer cached: api routing, override parsing, JSON encode and the strategy ladder do the work; trust, profmat and core do none", warmRead},
	{"cold-read", "9,100 agents (paper scale), no warm-up, each agent asked once: Appleseed, similarity scan, rank synthesis and vote run from scratch; api is under 1 %", coldRead},
	{"churn", "2,000 agents, cycles of 32 durable writes, one publish, 64 reads: shows what a publish costs, how much cache it carries over, and the write path", churn},
	{"restart", "2,000 agents, checkpoint then kill -9 with a 128-record WAL tail, over and over: times checkpoint.Recover, tail replay and the first answered read", restart},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// run is the state of one workload run in this process.
type run struct {
	workload    string
	seed        int64
	seconds     time.Duration
	tr          *tracer // nil on an untraced run
	durableRoot string

	attempted, failed int
	failures          []string // failed correctness checks
	notes             []string

	setupS     float64
	heapMB     float64  // live heap at the workload's heap checkpoint; 0 = take it at the end
	before     counters // at the start of the measured phase
	delta      counters // growth over the measured phase
	probesFrom counters // traced run: at the start of the layer probes
	metrics    map[string]float64
}

// count tallies one request; a status other than the expected one is a
// failed operation.
func (r *run) count(status, want int) bool {
	r.attempted++
	if status != want {
		r.failed++
		return false
	}
	return true
}

// fail records a failed correctness check.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.failures) < 20 {
		r.failures = append(r.failures, msg)
	}
	fmt.Fprintln(os.Stderr, "bench: CHECK FAILED:", msg)
}

// note prints one line of the run record and keeps it for the stored
// copy.
func (r *run) note(tag, format string, args ...any) {
	line := fmt.Sprintf("# %s %s: %s", r.workload, tag, fmt.Sprintf(format, args...))
	r.notes = append(r.notes, line)
	fmt.Println(line)
}

// defaultSeconds is BENCHMARK.json's run_seconds: what the bounds were
// sized at.
const defaultSeconds = 20

// outDir is where traces, run records and durable directories go: out/
// beside the benchmark's sources (the process runs in bench/).
const outDir = "out"

// environment prints the facts a number cannot be compared without, and
// refuses to run when the durable directory cannot be written.
func (r *run) environment() error {
	if err := os.MkdirAll(r.durableRoot, 0o755); err != nil {
		return fmt.Errorf("durable directory %s is not writable: %w", r.durableRoot, err)
	}
	probe := filepath.Join(r.durableRoot, "writable")
	if err := os.WriteFile(probe, []byte("x"), 0o644); err != nil {
		return fmt.Errorf("durable directory %s is not writable: %w", r.durableRoot, err)
	}
	_ = os.Remove(probe) // the whole directory is removed at exit
	abs, _ := filepath.Abs(r.durableRoot)
	fs := fsType(r.durableRoot)
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "default(100)"
	}
	r.note("env", "nproc=%d GOMAXPROCS=%d go=%s GOGC=%s seed=%d seconds=%g trace=%t",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gogc, r.seed, r.seconds.Seconds(), r.tr != nil)
	r.note("env", "durable=%s fs=%s", abs, fs)
	if fs != "tmpfs" {
		r.note("env", "warning: durable directory is not tmpfs; writes pay the device's fsync (reported as wal.fsync_disk_us), which is the sandbox's, not the program's")
	}
	return nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric by name and unit, stores the run record,
// and emits the result line.
func (r *run) report() (result, error) {
	defs := endToEnd
	if r.tr != nil {
		defs = perLayer
	}
	res := result{
		Correct:   len(r.failures) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("%s/%s %.6g %s\n", r.workload, d.Name, v, d.Unit)
	}
	// failed_share is the issue's twelfth metric; it is 0 on a healthy
	// run, which the result line's attempted/failed already carry.
	fmt.Printf("%s/failed_share %g ratio (%d of %d)\n", r.workload,
		float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)

	record := struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Trace    bool     `json:"trace"`
		Notes    []string `json:"notes"`
		Failures []string `json:"failures,omitempty"`
		Result   result   `json:"result"`
	}{r.workload, r.seed, r.tr != nil, r.notes, r.failures, res}
	data, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return res, err
	}
	name := fmt.Sprintf("run-%s-trace%d.json", r.workload, btoi(r.tr != nil))
	if err := os.WriteFile(filepath.Join(outDir, name), data, 0o644); err != nil {
		return res, err
	}
	if r.tr != nil {
		if err := r.tr.write(filepath.Join(outDir, "trace-"+r.workload+".json")); err != nil {
			return res, err
		}
	}
	return res, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runOne runs a single workload in this process and prints the result
// line last.
func runOne(wl *workload, seed int64, seconds int, trace bool) error {
	runtime.GOMAXPROCS(warmWorkers)
	r := &run{
		workload:    wl.name,
		seed:        seed,
		seconds:     time.Duration(seconds) * time.Second,
		durableRoot: filepath.Join(outDir, fmt.Sprintf("durable-%s-%d", wl.name, os.Getpid())),
		metrics:     make(map[string]float64),
	}
	if trace {
		r.tr = newTracer()
	}
	if err := r.environment(); err != nil {
		return err
	}
	defer os.RemoveAll(r.durableRoot)
	if err := wl.run(r); err != nil {
		return err
	}
	res, err := r.report()
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d failed operations, %d failed checks", wl.name, r.failed, len(r.failures))
	}
	return nil
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (default: all, one process each)")
		seed      = flag.Int64("seed", 1117, "plan and community seed")
		seconds   = flag.Int("seconds", defaultSeconds, "length of the measured phase in seconds")
		trace     = flag.Int("trace", 0, "1 = record spans and report the per-layer metrics instead of the end-to-end ones")
		selfcheck = flag.Bool("selfcheck", false, "run every workload in A,B,B,A order and compare the two sets against half of each bound")
	)
	flag.Parse()
	var err error
	switch {
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case *seconds < 1 || *trace < 0 || *trace > 1:
		err = fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1")
	case *selfcheck:
		err = selfCheck(*seed, *seconds)
	case *name == "":
		err = runAll(*seed, *seconds, *trace)
	default:
		wl := findWorkload(*name)
		if wl == nil {
			err = fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
		} else {
			err = runOne(wl, *seed, *seconds, *trace == 1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
