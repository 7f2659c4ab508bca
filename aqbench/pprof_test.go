package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// Protobuf encoders for hand-built profile fixtures.

func pbKey(field, wire int) []byte { return binary.AppendUvarint(nil, uint64(field<<3|wire)) }

func pbVarint(field int, v uint64) []byte {
	return binary.AppendUvarint(pbKey(field, 0), v)
}

func pbBytes(field int, b []byte) []byte {
	out := binary.AppendUvarint(pbKey(field, 2), uint64(len(b)))
	return append(out, b...)
}

func pbPacked(field int, vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return pbBytes(field, b)
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// fixtureProfile builds a gzip-compressed profile with the given function
// names (function id i+1 is names[i]; location id i+1 calls function i+1,
// except location 100, which holds two inlined lines) and samples.
func fixtureProfile(t *testing.T, names []string, samples [][]byte) []byte {
	t.Helper()
	var msg []byte
	// sample_type and a fixed64 period field exercise the skip paths.
	msg = append(msg, pbBytes(1, cat(pbVarint(1, 1), pbVarint(2, 2)))...)
	for _, s := range samples {
		msg = append(msg, pbBytes(2, s)...)
	}
	strs := append([]string{""}, names...)
	for i := range names {
		id := uint64(i + 1)
		msg = append(msg, pbBytes(4, cat(pbVarint(1, id), pbVarint(3, 0x1000+id), pbBytes(4, cat(pbVarint(1, id), pbVarint(2, 7)))))...)
		msg = append(msg, pbBytes(5, cat(pbVarint(1, id), pbVarint(2, id), pbVarint(4, 0)))...)
	}
	// Location 100: strconv inlined into encoding/json (innermost first).
	msg = append(msg, pbBytes(4, cat(pbVarint(1, 100), pbBytes(4, pbVarint(1, 7)), pbBytes(4, pbVarint(1, 6))))...)
	msg = append(msg, cat(pbKey(12, 1), make([]byte, 8))...) // a fixed64 field
	for _, s := range strs {
		msg = append(msg, pbBytes(6, []byte(s))...)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestParseProfileAttributesLeafPackages(t *testing.T) {
	names := []string{
		"aqueue/internal/sim.(*Engine).down",         // 1
		"runtime.scanobject",                         // 2
		"runtime.gcBgMarkWorker",                     // 3
		"runtime.mallocgc",                           // 4
		"aqueue/internal/topo.(*Pipe).deliver",       // 5
		"encoding/json.(*encodeState).marshal",       // 6
		"strconv.AppendFloat",                        // 7
		"aqueue/internal/harness.runOne",             // 8
		"aqueue/internal/fluid.(*Lane).stepCohort",   // 9
		"internal/poll.(*FD).Write",                  // 10
		"aqueue/internal/units.BitRate.BytesPerNano", // 11
	}
	samples := [][]byte{
		cat(pbPacked(1, 1), pbPacked(2, 5, 50_000_000)),      // sim
		cat(pbPacked(1, 2, 3), pbPacked(2, 3, 30_000_000)),   // runtime under a GC worker: gc
		cat(pbPacked(1, 4, 5), pbPacked(2, 2, 20_000_000)),   // runtime called from topo: runtime
		cat(pbVarint(1, 6), pbVarint(2, 4), pbVarint(2, 99)), // unpacked form: encoding
		cat(pbPacked(1, 100, 1), pbPacked(2, 1, 10_000_000)), // inlined strconv leaf: other
		cat(pbPacked(1, 8), pbPacked(2, 1, 10_000_000)),      // harness: experiments
		cat(pbPacked(1, 9, 1), pbPacked(2, 2, 20_000_000)),   // fluid
		cat(pbPacked(1, 10), pbPacked(2, 1, 10_000_000)),     // net
		cat(pbPacked(1, 11), pbPacked(2, 1, 10_000_000)),     // unmapped repo package: other
	}
	got, err := parseProfile(fixtureProfile(t, names, samples))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(samples) {
		t.Fatalf("parsed %d samples, want %d", len(got), len(samples))
	}
	if s := got[4].stack; len(s) != 3 || s[0] != names[6] || s[1] != names[5] || s[2] != names[0] {
		t.Fatalf("inlined stack = %q, want strconv, encoding/json, sim", s)
	}
	if got[3].count != 4 {
		t.Fatalf("unpacked sample count = %d, want the first value 4", got[3].count)
	}
	shares := layerShares(got)
	if len(shares) != len(layers) {
		t.Fatalf("%d shares, want one per layer (%d)", len(shares), len(layers))
	}
	const total = 20.0
	want := map[string]float64{
		"sim": 5, "gc": 3, "runtime": 2, "encoding": 4, "other": 2,
		"experiments": 1, "fluid": 2, "net": 1,
	}
	for _, l := range layers {
		w := 100 * want[l] / total
		if math.Abs(shares[l]-w) > 1e-9 {
			t.Errorf("cpu.%s = %.4f%%, want %.4f%%", l, shares[l], w)
		}
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"aqueue/internal/core.(*AQ).Process"}, "core"},
		{[]string{"aqueue/internal/transport.(*Sender).onAck.func1"}, "transport"},
		{[]string{"aqueue/internal/cc.(*Cubic).OnAck"}, "cc"},
		{[]string{"aqueue/internal/queue.(*FIFO).Push"}, "queue"},
		{[]string{"aqueue/internal/packet.(*Pool).Get"}, "packet"},
		{[]string{"aqueue/internal/ratelimit.(*TokenBucket).drain"}, "ratelimit"},
		{[]string{"aqueue/internal/workload.WebSearch.Sample"}, "workload"},
		{[]string{"aqueue/internal/stats.(*Meter).Add"}, "stats"},
		{[]string{"aqueue/internal/trace.(*Ring).Add"}, "stats"},
		{[]string{"aqueue/internal/service.(*Fabric).AdvanceWindow"}, "service"},
		{[]string{"aqueue/internal/control.DispatchController"}, "control"},
		{[]string{"aqueue/internal/experiments.Fig6"}, "experiments"},
		{[]string{"encoding/json.Marshal"}, "encoding"},
		{[]string{"net.(*conn).Read"}, "net"},
		{[]string{"syscall.Syscall"}, "net"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.write"}, "net"},
		{[]string{"runtime.futex", "runtime.notesleep"}, "runtime"},
		{[]string{"internal/runtime/maps.(*Map).Get"}, "runtime"},
		{[]string{"runtime.memmove", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc"}, "gc"},
		{[]string{"gcWriteBarrier", "aqueue/internal/sim.(*Engine).push"}, "gc"},
		{[]string{"runtime._GC"}, "gc"},
		{[]string{"aqueue/aqbench.main"}, "other"},
		{[]string{"main.main"}, "other"},
		{[]string{"reflect.Value.Field"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestPackageOf(t *testing.T) {
	cases := map[string]string{
		"aqueue/internal/sim.(*Engine).down":         "aqueue/internal/sim",
		"runtime.mallocgc":                           "runtime",
		"encoding/json.(*encodeState).marshal.func1": "encoding/json",
		"internal/runtime/maps.(*Map).Get":           "internal/runtime/maps",
		"gcWriteBarrier":                             "gcWriteBarrier",
		"aqueue/internal/fluid.sum[...]":             "aqueue/internal/fluid",
	}
	for fn, want := range cases {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseProfileRejectsTruncatedInput(t *testing.T) {
	full := cat(pbBytes(6, []byte("runtime.main")), pbBytes(2, pbPacked(1, 1)))
	if _, err := parseProfile(full[:len(full)-1]); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}

var sink float64

// TestParseProfileReadsRuntimeProfile checks the reader against a real
// runtime/pprof CPU profile: it must parse, and its samples must carry
// stacks.
func TestParseProfileReadsRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			sink += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var ticks int64
	for _, s := range samples {
		if len(s.stack) == 0 {
			t.Fatalf("sample without a stack: %+v", s)
		}
		ticks += s.count
	}
	if ticks == 0 {
		t.Skip("no profile ticks recorded on this host")
	}
	shares := layerShares(samples)
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Fatalf("shares sum to %.6f%%, want 100%%", sum)
	}
}
