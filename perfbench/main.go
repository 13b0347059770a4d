// Command perfbench is the repository's benchmark: it runs one seeded
// workload against the real packages in-process, checks the outputs, and
// prints a report followed by one JSON result line. See NOTES.md.
//
//	perfbench --workload kv-closed --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics of an untraced
// run. With --trace 1 the run is split into an untraced half and a traced
// half, each on a fresh set-up; the result holds the per-layer metrics of
// the traced half and the tracing overhead (traced minus untraced) of
// each end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

var workloads = []string{"iso-zipf", "kv-closed", "kv-open", "kv-lossy"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "one of "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics and tracing overhead")
	flag.Parse()
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, dur time.Duration, trace int) error {
	if dur <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	if !slices.Contains(workloads, workload) {
		return fmt.Errorf("unknown workload %q; want one of %s", workload, strings.Join(workloads, ", "))
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	phaseOf := func(d time.Duration, traced bool) (*phase, error) {
		switch workload {
		case "iso-zipf":
			return runISO(seed, d, traced)
		case "kv-closed":
			return runKVClosed(seed, d, false, traced)
		case "kv-lossy":
			return runKVClosed(seed, d, true, traced)
		default:
			return runKVOpen(seed, d, traced)
		}
	}
	printFacts(workload, seed, dur, trace)

	var phases []*phase
	res := result{Metrics: map[string]metric{}}
	if trace == 0 {
		p, err := phaseOf(dur, false)
		if err != nil {
			return err
		}
		phases = []*phase{p}
		e2e, err := endToEnd("untraced", p)
		if err != nil {
			return err
		}
		printMetrics("untraced", e2e)
		res.Metrics = e2e
	} else {
		plain, err := phaseOf(dur/2, false)
		if err != nil {
			return err
		}
		traced, err := phaseOf(dur-dur/2, true)
		if err != nil {
			return err
		}
		phases = []*phase{plain, traced}
		e0, err := endToEnd("untraced", plain)
		if err != nil {
			return err
		}
		e1, err := endToEnd("traced", traced)
		if err != nil {
			return err
		}
		printMetrics("untraced", e0)
		printMetrics("traced", e1)
		for name, v := range layerMetrics(traced) {
			res.Metrics[name] = v
		}
		for name, v := range e0 {
			res.Metrics["overhead."+name] = metric{e1[name].Value - v.Value, v.Unit}
		}
	}

	res.Correct = true
	for _, p := range phases {
		res.Attempted += p.attempted
		res.Failed += p.failed
		for _, v := range p.violations {
			fmt.Fprintf(os.Stderr, "correctness violation: %s\n", v)
			res.Correct = false
		}
	}
	fmt.Printf("fail_ratio %.6g ratio (%d of %d operations)\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("correctness gate failed")
	}
	return nil
}

// printFacts records what the numbers depend on besides the code.
func printFacts(workload string, seed int64, dur time.Duration, trace int) {
	facts := map[string]any{
		"workload": workload, "seed": seed, "seconds": dur.Seconds(), "trace": trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	}
	switch workload {
	case "iso-zipf":
		facts["lanes"], facts["zipf_s"], facts["workers"], facts["controller"] = isoLanes, isoZipfS, isoWorkers, "vca-basic"
	default:
		facts["gc"] = map[string]any{
			"replicas": replicas, "transport": "udpnet loopback", "controller": "vca-basic",
			"rto_ms": rto.Milliseconds(), "fd_interval_ms": fdInterval.Milliseconds(),
			"other": "gc.Config defaults (BatchMax, SendWindow, SuspectAfter, PumpWorkers)",
		}
		if workload == "kv-open" {
			facts["value_bytes"], facts["put_rate_per_s"], facts["get_rate_per_s"] = openValue, openPutRate, openGetRate
		} else {
			facts["value_bytes"], facts["writers"] = closedValue, kvWriters
		}
		if workload == "kv-lossy" {
			facts["faultnet_drop"] = lossyDrop
		}
	}
	b, _ := json.Marshal(facts) // a map of plain values always marshals
	fmt.Printf("facts %s\n", b)
}

// endToEnd derives the end-to-end metrics of one phase and prints the
// report lines behind them. The primary operation is a put on kv-* and a
// computation on iso-zipf.
func endToEnd(label string, p *phase) (map[string]metric, error) {
	if p.opsSinceSetup == 0 {
		return nil, fmt.Errorf("no operation was acknowledged")
	}
	setups := append([]time.Duration(nil), p.setups...)
	sort.Slice(setups, func(i, j int) bool { return setups[i] < setups[j] })
	m := map[string]metric{
		"setup_s":         {setups[len(setups)/2].Seconds(), "s"},
		"heap_kib_per_op": {float64(p.heapEnd) / 1024 / float64(p.opsSinceSetup), "KiB"},
	}
	// Timings are medians over the run's windows (see series).
	rate, _ := p.lat.slotMedian(func(_ *hist, ok uint64) (float64, error) { return float64(ok) / p.lat.width.Seconds(), nil })
	m["ops_s"] = metric{rate, "1/s"}
	for _, q := range []float64{0.5, 0.99} {
		v, err := p.lat.slotMedian(func(h *hist, _ uint64) (float64, error) { return h.quantile(q) })
		if err != nil {
			return nil, err
		}
		m[fmt.Sprintf("p%g_us", q*100)] = metric{v / 1e3, "us"}
	}

	all := p.lat.all()
	w50, _ := all.quantile(0.5) // supported wherever every window's is
	w99, _ := all.quantile(0.99)
	var perWindow []string
	for _, ok := range p.lat.ok {
		perWindow = append(perWindow, fmt.Sprintf("%.6g", float64(ok)/p.lat.width.Seconds()))
	}
	fmt.Printf("%s set-ups: n=%d min %v median %v max %v\n", label, len(setups), setups[0], setups[len(setups)/2], setups[len(setups)-1])
	fmt.Printf("%s whole run: %d operations in %.3fs, %.6g ops/s, p50 %.6g us, p99 %.6g us\n",
		label, all.n, p.window.Seconds(), float64(p.ops)/p.window.Seconds(), w50/1e3, w99/1e3)
	fmt.Printf("%s ops/s in each of %d windows of %v: %s\n", label, len(p.lat.slots), p.lat.width, strings.Join(perWindow, " "))
	fmt.Printf("%s heap_growth_kib_per_op %.6g KiB (live heap %.1f MiB at set-up end, %.1f MiB at run end, %d operations)\n",
		label, (float64(p.heapEnd)-float64(p.heapSetup))/1024/float64(p.opsSinceSetup),
		float64(p.heapSetup)/(1<<20), float64(p.heapEnd)/(1<<20), p.opsSinceSetup)
	if p.getLat != nil {
		for _, q := range []float64{0.5, 0.99} {
			v, err := p.getLat.quantile(q)
			if err != nil {
				return nil, err
			}
			fmt.Printf("%s get_p%g_us %.6g us (n=%d, from due time)\n", label, q*100, v/1e3, p.getLat.n)
		}
		v, err := p.late.quantile(0.99)
		if err != nil {
			return nil, err
		}
		fmt.Printf("%s loadgen_late_ms_p99 %.6g ms (n=%d)\n", label, v/1e6, p.late.n)
	}
	return m, nil
}

func layerMetrics(p *phase) map[string]metric {
	out := map[string]metric{}
	for _, d := range layerDefs {
		out[d.name] = metric{p.layer[d.name], d.unit}
	}
	if p.getLat != nil {
		for _, q := range []float64{0.5, 0.99} {
			v, _ := p.getCall.quantile(q) // as many samples as getLat, which endToEnd checked
			out[fmt.Sprintf("kvstore.get_us_p%g", q*100)] = metric{v / 1e3, "us"}
		}
		v, _ := p.late.quantile(0.99)
		out["loadgen.late_ms_p99"] = metric{v / 1e6, "ms"}
	}
	return out
}

// layerDefs lists every per-layer metric; one a workload does not
// exercise reads 0 (kv-only metrics on iso-zipf, the loss counter off
// kv-lossy, reads and generator lateness off kv-open).
var layerDefs = []struct{ name, unit string }{
	{"cc.spawn_us_p50", "us"}, {"cc.spawn_us_p99", "us"}, {"cc.enter_us_p99", "us"},
	{"cc.fast_ratio", "ratio"}, {"cc.spawns_per_put", "count"},
	{"core.handlers_per_put", "count"},
	{"core.self_us_per_put.relcomm", "us"}, {"core.self_us_per_put.relcast", "us"},
	{"core.self_us_per_put.consensus", "us"}, {"core.self_us_per_put.abcast", "us"},
	{"core.self_us_per_put.netout", "us"}, {"core.self_us_per_put.fd", "us"},
	{"core.self_us_per_put.app", "us"},
	{"gc.ops_per_instance", "count"}, {"gc.dropped_stale", "count"}, {"gc.pump_retries", "count"},
	{"transport.data_per_put", "count"}, {"transport.acks_per_put", "count"},
	{"transport.beats_per_put", "count"}, {"transport.bytes_per_put", "B"},
	{"transport.send_us_p50", "us"}, {"transport.send_us_p99", "us"},
	{"udpnet.dropped_oversize", "count"}, {"udpnet.send_errors", "count"},
	{"faultnet.dropped_per_put", "count"},
	{"kvstore.get_us_p50", "us"}, {"kvstore.get_us_p99", "us"},
	{"loadgen.late_ms_p99", "ms"},
}

func printMetrics(label string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %s %.6g %s\n", label, n, m[n].Value, m[n].Unit)
	}
}
