// Command aqbench is the repository's benchmark. It runs one of
// three workloads against the simulator's public APIs, with the inputs
// derived from a seed, and prints the end-to-end metrics (or, traced, the
// per-layer ledger) as one JSON object on the last line of standard
// output:
//
//	aqbench --workload sweep|daemon|fabric --seed N --seconds S --trace 0|1
//	aqbench --check [--seed N]            # fabric on 1 and 2 domains: identical digests
//	aqbench --record --workload W --seed N # print the digest to store in digests.json
//
// See README.md in this directory for the workloads, the metrics and
// which layer metric should move which end-to-end metric.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// metricDef is one reported metric: its name and unit. The lists below
// mirror BENCHMARK.json at the repository root (a test keeps them equal).
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run: what a user of the
// workload pays. Times are CPU time: on a shared host the hypervisor's
// steal moves wall times by tens of percent between runs, so the wall
// times (which a parallel speedup moves) are reported per layer.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// sweepExperiments is the fixed batch of the sweep workload: the sixteen
// registered experiments in the paper's presentation order.
var sweepExperiments = []string{
	"fig1", "fig3", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
	"table2", "table3", "table4", "extfabric", "extqueues", "fluidbg", "churn",
}

// wireOps are the daemon session's request kinds, each reported as
// rpc.<op>_p50_ms.
var wireOps = []string{
	"hello", "grant", "attach", "detach", "set_weight", "set_rate",
	"list", "stats", "trace", "fingerprint", "step", "quit",
}

// perLayer is the traced run's ledger, in report order.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"host.nproc", "count"},
		{"host.gomaxprocs", "count"},
		{"host.domain_workers", "count"},
		{"wall.setup_s", "s"},
		{"wall.run_s", "s"},
		{"trace.run_cpu_s", "s"},
		{"trace.overhead_s", "s"},
	}
	for _, e := range sweepExperiments {
		m = append(m, metricDef{"exp." + e + "_s", "s"})
	}
	for _, b := range []string{"topo", "fluid", "flows", "fabric", "attach"} {
		m = append(m, metricDef{"build." + b + "_s", "s"})
	}
	for _, op := range wireOps {
		m = append(m, metricDef{"rpc." + op + "_p50_ms", "ms"})
	}
	m = append(m,
		metricDef{"rpc.step_p99_ms", "ms"},
		metricDef{"rpc.other_p50_ms", "ms"},
		metricDef{"rpc.other_p99_ms", "ms"},
		metricDef{"svc.step_overhead_ms", "ms"},
		metricDef{"svc.stats_bytes", "bytes"},
		metricDef{"sim.events", "count"},
		metricDef{"sim.events_per_pkt", "events/pkt"},
		metricDef{"sim.ns_per_event", "ns"},
		metricDef{"sync.rounds", "count"},
		metricDef{"sync.runs_per_round", "runs/round"},
		metricDef{"sync.overlap", "x"},
		metricDef{"sync.barrier_ms", "ms"},
		metricDef{"sync.flushed_msgs", "count"},
		metricDef{"sync.advance_ms", "ms"},
		metricDef{"net.pkts_delivered", "count"},
		metricDef{"aq.arrived", "count"},
		metricDef{"aq.drops", "count"},
		metricDef{"aq.marks", "count"},
		metricDef{"fluid.entity_epochs", "count"},
		metricDef{"fluid.skipped_pct", "%"},
		metricDef{"fluid.ns_per_entity_epoch", "ns"},
		metricDef{"gc.cycles", "count"},
		metricDef{"gc.pause_ms", "ms"},
		metricDef{"mem.alloc_mb", "MB"},
		metricDef{"mem.allocs_per_pkt", "allocs/pkt"},
		metricDef{"mem.heap_live_mb", "MB"},
	)
	for _, l := range layers {
		m = append(m, metricDef{"cpu." + l, "%"})
	}
	return m
}()

// digestsJSON holds the expected output digest of each workload for the
// benchmark's stored seeds: workload -> seed -> digest.
//
//go:embed digests.json
var digestsJSON []byte

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: sweep, daemon or fabric")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measure for this many seconds (at least one full pass)")
	trace := flag.Int("trace", 0, "1 = traced run: print the per-layer ledger instead of the end-to-end metrics")
	check := flag.Bool("check", false, "untimed check: run the fabric workload on 1 and on 2 domains and require identical digests")
	record := flag.Bool("record", false, "run one pass of the workload and print its digest for digests.json")
	flag.Parse()

	if *check {
		if err := checkDomains(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "aqbench:", err)
			os.Exit(1)
		}
		return
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aqbench:", err)
		os.Exit(2)
	}
	if *record {
		res, err := w.iterate(newProbe(false))
		if err != nil {
			fmt.Fprintln(os.Stderr, "aqbench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s %d %s\n", *name, *seed, res.digest)
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "aqbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	want, err := storedDigest(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aqbench:", err)
		os.Exit(2)
	}

	budget := time.Duration(*seconds) * time.Second
	host := describeHost(w)
	fmt.Println(host.line())
	plain, err := measure(w, budget, false, want)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aqbench:", err)
		os.Exit(1)
	}
	plain.print(*name, "untraced")
	lg := plain
	if *trace == 1 {
		if lg, err = measure(w, budget, true, want); err != nil {
			fmt.Fprintln(os.Stderr, "aqbench:", err)
			os.Exit(1)
		}
		lg.print(*name, "traced")
		// The traced ledger's verdict covers both passes.
		lg.attempted += plain.attempted
		lg.failed += plain.failed
	}

	res := result{
		Correct:   lg.failed == 0,
		Attempted: lg.attempted,
		Failed:    lg.failed,
		Metrics:   map[string]metric{},
	}
	if *trace == 0 {
		res.Metrics["setup_s"] = metric{median(lg.setups), "s"}
		res.Metrics["run_cpu_s"] = metric{median(lg.cpuRuns), "s"}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	} else {
		vals := lg.layerValues()
		vals["host.nproc"] = float64(host.nproc)
		vals["host.gomaxprocs"] = float64(host.gomaxprocs)
		vals["host.domain_workers"] = 0
		if host.workers {
			vals["host.domain_workers"] = 1
		}
		vals["wall.setup_s"] = median(plain.wallSetups)
		vals["wall.run_s"] = median(plain.runs)
		vals["trace.run_cpu_s"] = median(lg.cpuRuns)
		vals["trace.overhead_s"] = median(lg.cpuRuns) - median(plain.cpuRuns)
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{vals[d.name], d.unit}
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aqbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// storedDigest returns the digest stored for (workload, seed), or "" when
// the seed has none.
func storedDigest(workload string, seed uint64) (string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	return all[workload][fmt.Sprint(seed)], nil
}

// host records what the numbers were measured on.
type host struct {
	nproc, gomaxprocs int
	goVersion         string
	domains           int
	workers           bool
}

// describeHost follows the parallel-honesty convention of the repo's
// benchcore records: partitioned workloads put their two domains on
// worker goroutines only when GOMAXPROCS can back them, and the result
// says so instead of reporting parallel numbers measured on one core.
func describeHost(w workload) host {
	h := host{nproc: runtime.NumCPU(), gomaxprocs: runtime.GOMAXPROCS(0), goVersion: runtime.Version()}
	h.domains, h.workers = w.domains()
	return h
}

func (h host) line() string {
	s := fmt.Sprintf("host: nproc=%d gomaxprocs=%d go=%s domains=%d domain_workers=%t",
		h.nproc, h.gomaxprocs, h.goVersion, h.domains, h.workers)
	if h.domains > 1 {
		s += fmt.Sprintf(" parallel_measured=%t", h.workers)
		if !h.workers {
			s += " (GOMAXPROCS < 2: the domains ran cooperatively; these are not parallel numbers)"
		}
	}
	return s
}

// workload is one benchmark workload with its seed-derived inputs.
type workload interface {
	// iterate performs one set-up and one pass of the fixed work. It
	// calls pr.beginRun between the two and pr.endRun after the pass.
	iterate(pr *probe) (iteration, error)
	// domains reports the simulation domain count and whether the
	// domains run on worker goroutines.
	domains() (n int, workers bool)
}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "sweep":
		return &sweep{seed: seed}, nil
	case "daemon":
		return newDaemon(seed), nil
	case "fabric":
		return newFabric(seed, 2), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want sweep, daemon or fabric)", name)
}

// iteration is one pass's outcome.
type iteration struct {
	digest            string
	attempted, failed int
	// work holds exact work counts, which must repeat from pass to pass
	// of the same seed.
	work map[string]float64
	// layer holds this pass's other per-layer values (spans, host-time
	// counters), reported as medians over passes.
	layer map[string]float64
	// samples holds latency samples (ms) pooled over passes, keyed by
	// wire op.
	samples map[string][]float64
}

// probe measures one pass: the wall and CPU time of its set-up and run
// phases, and the allocator's counters around the run phase, which it
// CPU-profiles when traced.
type probe struct {
	traced   bool
	t0       time.Time
	c0       float64 // process CPU seconds at t0
	setup    time.Duration
	setupCPU float64
	run      time.Duration
	runCPU   float64
	before   runtime.MemStats
	after    runtime.MemStats
	prof     bytes.Buffer
	profErr  error
}

// newProbe starts a pass's set-up phase.
func newProbe(traced bool) *probe {
	return &probe{traced: traced, t0: time.Now(), c0: cpuSeconds()}
}

// beginRun ends the set-up phase. A forced collection (untimed) lets every
// pass start its run from the same heap state.
func (p *probe) beginRun() {
	p.setup = time.Since(p.t0)
	p.setupCPU = cpuSeconds() - p.c0
	runtime.GC()
	runtime.ReadMemStats(&p.before)
	if p.traced {
		p.profErr = pprof.StartCPUProfile(&p.prof)
	}
	p.t0, p.c0 = time.Now(), cpuSeconds()
}

// endRun ends the run phase.
func (p *probe) endRun() {
	p.run = time.Since(p.t0)
	p.runCPU = cpuSeconds() - p.c0
	if p.traced && p.profErr == nil {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&p.after)
}

// ledger accumulates the passes of one measurement.
type ledger struct {
	setups, cpuRuns   []float64 // set-up and run CPU seconds, per pass
	wallSetups, runs  []float64 // set-up and run wall seconds, per pass
	attempted, failed int
	notes             []string
	firstWork         map[string]float64
	layer             map[string][]float64
	samples           map[string][]float64
	profile           []profSample
}

// measure runs passes until the budget is spent (at least one) and checks
// each pass's digest against the stored one — or, for a seed with no
// stored digest, against the first pass — and its work counts against the
// first pass's.
func measure(w workload, budget time.Duration, traced bool, want string) (*ledger, error) {
	lg := &ledger{layer: map[string][]float64{}, samples: map[string][]float64{}}
	deadline := time.Now().Add(budget)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		// Collect the previous pass's garbage (untimed), so each pass —
		// and the peak RSS — holds one workload instance at a time.
		runtime.GC()
		pr := newProbe(traced)
		it, err := w.iterate(pr)
		if err != nil {
			return nil, err
		}
		lg.setups = append(lg.setups, pr.setupCPU)
		lg.cpuRuns = append(lg.cpuRuns, pr.runCPU)
		lg.wallSetups = append(lg.wallSetups, pr.setup.Seconds())
		lg.runs = append(lg.runs, pr.run.Seconds())
		lg.attempted += it.attempted
		lg.failed += it.failed
		if want == "" {
			want = it.digest
		}
		if n := digestMismatches(it.digest, want); n > 0 {
			lg.failed += n
			lg.notes = append(lg.notes, fmt.Sprintf("pass %d: digest %s, want %s", pass, it.digest, want))
		}
		if lg.firstWork == nil {
			lg.firstWork = it.work
		} else if !sameCounts(lg.firstWork, it.work) {
			lg.failed++
			lg.notes = append(lg.notes, fmt.Sprintf("pass %d: work counts %v differ from pass 0's %v", pass, it.work, lg.firstWork))
		}
		for k, v := range it.layer {
			lg.layer[k] = append(lg.layer[k], v)
		}
		for k, v := range it.samples {
			lg.samples[k] = append(lg.samples[k], v...)
		}
		lg.addAllocs(pr, it.work["net.pkts_delivered"])
		if traced {
			if pr.profErr != nil {
				return nil, fmt.Errorf("cpu profile: %w", pr.profErr)
			}
			samples, err := parseProfile(pr.prof.Bytes())
			if err != nil {
				return nil, err
			}
			lg.profile = append(lg.profile, samples...)
		}
	}
	return lg, nil
}

// errorDigest ends the digest part of an operation that returned an
// error; such a part never matches.
const errorDigest = "=error"

// digestMismatches counts the space-separated digest parts (one per
// experiment for the sweep, one in all for the other workloads) that
// differ from the expected digest or record an error. Each part is the
// output of one attempted operation the workload counted.
func digestMismatches(got, want string) int {
	g, w := strings.Fields(got), strings.Fields(want)
	if len(g) != len(w) {
		return len(g)
	}
	n := 0
	for i := range g {
		if g[i] != w[i] || strings.HasSuffix(g[i], errorDigest) {
			n++
		}
	}
	return n
}

func sameCounts(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// addAllocs records the run phase's garbage-collector and allocator
// counters.
func (lg *ledger) addAllocs(pr *probe, pkts float64) {
	b, a := &pr.before, &pr.after
	add := func(k string, v float64) { lg.layer[k] = append(lg.layer[k], v) }
	add("gc.cycles", float64(a.NumGC-b.NumGC))
	add("gc.pause_ms", float64(a.PauseTotalNs-b.PauseTotalNs)/1e6)
	add("mem.alloc_mb", float64(a.TotalAlloc-b.TotalAlloc)/1e6)
	add("mem.allocs_per_pkt", ratio(float64(a.Mallocs-b.Mallocs), pkts))
	add("mem.heap_live_mb", float64(b.HeapAlloc)/1e6)
}

// layerValues reduces the ledger to one value per per-layer metric: work
// counts as measured (they repeat exactly), other values as medians over
// passes, latency percentiles over the pooled samples, CPU shares over
// the pooled profile.
func (lg *ledger) layerValues() map[string]float64 {
	vals := map[string]float64{}
	for k, v := range lg.firstWork {
		vals[k] = v
	}
	for k, v := range lg.layer {
		vals[k] = median(v)
	}
	var other []float64
	for op, s := range lg.samples {
		vals["rpc."+op+"_p50_ms"] = percentile(s, 50)
		if op == "step" {
			vals["rpc.step_p99_ms"] = percentile(s, 99)
		} else {
			other = append(other, s...)
		}
	}
	vals["rpc.other_p50_ms"] = percentile(other, 50)
	vals["rpc.other_p99_ms"] = percentile(other, 99)
	for l, share := range layerShares(lg.profile) {
		vals["cpu."+l] = share
	}
	// The fluid lane's host time comes from its CPU share: the profile's
	// tick count spread over the entity-epochs of the profiled passes.
	var ticks, fluidTicks int64
	for _, s := range lg.profile {
		ticks += s.count
		if layerOf(s.stack) == "fluid" {
			fluidTicks += s.count
		}
	}
	epochs := vals["fluid.entity_epochs"] * float64(len(lg.runs))
	vals["fluid.ns_per_entity_epoch"] = ratio(float64(fluidTicks)*1e7, epochs) // 100 Hz: 1e7 ns a tick
	return vals
}

// print writes the human-readable summary of a measurement: every
// end-to-end figure with its unit, the failure fraction, and for the
// daemon the request latency percentiles with their sample counts.
func (lg *ledger) print(name, mode string) {
	fmt.Printf("%s %s: passes=%d setup_s=%.4f s (cpu; wall %.4f s) run_cpu_s=%.4f s run_s=%.4f s (wall) peak_rss_mb=%.1f MB failed_frac=%g (%d/%d)\n",
		name, mode, len(lg.runs), median(lg.setups), median(lg.wallSetups), median(lg.cpuRuns), median(lg.runs), peakRSSMB(),
		ratio(float64(lg.failed), float64(lg.attempted)), lg.failed, lg.attempted)
	if steps := lg.samples["step"]; len(steps) > 0 {
		var other []float64
		for op, s := range lg.samples {
			if op != "step" {
				other = append(other, s...)
			}
		}
		p99s, p99o := percentile(steps, 99), percentile(other, 99)
		fmt.Printf("%s %s: step_p50_ms=%.4f ms step_p99_ms=%.4f ms (n=%d, %d beyond p99) rpc_p50_ms=%.4f ms rpc_p99_ms=%.4f ms (n=%d, %d beyond p99)\n",
			name, mode, percentile(steps, 50), p99s, len(steps), beyond(steps, p99s),
			percentile(other, 50), p99o, len(other), beyond(other, p99o))
	}
	keys := make([]string, 0, len(lg.firstWork))
	for k := range lg.firstWork {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%g", k, lg.firstWork[k])
	}
	fmt.Printf("%s %s: work counts:%s\n", name, mode, b.String())
	for _, n := range lg.notes {
		fmt.Printf("%s %s: FAILED %s\n", name, mode, n)
	}
}
