package main

import (
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"time"

	"aqueue/internal/control"
	"aqueue/internal/service"
	"aqueue/internal/sim"
)

// daemon is the live-fabric workload: an in-process aqsimd — a fabric
// service behind the wire server — driven by one client over one loopback
// connection in a closed loop. The client steps the paused fabric one
// window per request, reads between windows and reconfigures every few
// windows, and the session ends on the final fingerprint.
type daemon struct {
	seed     uint64
	parallel bool
}

const (
	// daemonWindows is the session length in 1 ms windows.
	daemonWindows = 300
	// daemonWriteEvery spaces the reconfiguration writes.
	daemonWriteEvery = 10
	// daemonChurnEvery is the attach/detach churn period: a short-lived
	// driver attaches at window 20 of each period and detaches at 45.
	daemonChurnEvery = 50
)

func newDaemon(seed uint64) *daemon {
	return &daemon{seed: seed, parallel: runtime.GOMAXPROCS(0) >= 2}
}

func (d *daemon) domains() (int, bool) { return 2, d.parallel }

// session is one client connection to a freshly started service.
type session struct {
	it      *iteration
	svc     *service.Service
	fab     *service.Fabric
	ws      *control.WireServer
	served  chan error
	cl      *control.Client
	lastErr error
}

// do sends one request, timing its round trip under its op name. An error
// reply counts as a failed operation.
func (s *session) do(req control.WireRequest) control.WireResponse {
	req.V = control.ProtoV2
	t0 := time.Now()
	resp, err := s.cl.Do(req)
	s.it.samples[req.Op] = append(s.it.samples[req.Op], float64(time.Since(t0).Nanoseconds())/1e6)
	s.it.attempted++
	if err != nil {
		s.it.failed++
		s.lastErr = fmt.Errorf("%s: %w", req.Op, err)
	}
	return resp
}

// start builds the fabric, starts the service paused behind a wire server
// on a loopback port and connects the client.
func (d *daemon) start(it *iteration) (*session, error) {
	fab, err := service.NewFabric(service.Config{
		Topo:     "dumbbell",
		Hosts:    8,
		Domains:  2,
		Parallel: d.parallel,
		Window:   sim.Millisecond,
		TraceLen: 4096,
		CC:       "cubic",
	})
	if err != nil {
		return nil, err
	}
	s := &session{it: it, fab: fab, served: make(chan error, 1)}
	s.svc = service.Start(fab, service.RunConfig{StartPaused: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.svc.Quit()
		return nil, err
	}
	s.ws = control.NewWireServer(s.svc.Handler())
	go func() { s.served <- s.ws.Serve(ln) }()
	if s.cl, err = control.Dial(ln.Addr().String()); err != nil {
		s.ws.Close()
		<-s.served
		s.svc.Quit()
		return nil, err
	}
	return s, nil
}

// stop quits the service and waits for the server and the loop to exit.
func (s *session) stop() {
	s.do(control.WireRequest{Op: "quit"})
	s.cl.Close()
	s.ws.Close()
	<-s.served
	<-s.svc.Done()
}

// daemonTenants are granted at S1's ingress: two weighted shares, one
// absolute guarantee, and a tenant for the attach/detach churn.
var daemonTenants = []control.WireRequest{
	{Op: "grant", Tenant: "web", Mode: "weighted", Weight: 1, Switch: "S1", Position: "ingress"},
	{Op: "grant", Tenant: "mining", Mode: "weighted", Weight: 2, Switch: "S1", Position: "ingress", CC: "ecn"},
	{Op: "grant", Tenant: "gold", Mode: "absolute", Bandwidth: 2e9, Switch: "S1", Position: "ingress"},
	{Op: "grant", Tenant: "churn", Mode: "weighted", Weight: 1, Switch: "S1", Position: "ingress"},
}

func (d *daemon) iterate(pr *probe) (iteration, error) {
	it := iteration{layer: map[string]float64{}, work: map[string]float64{}, samples: map[string][]float64{}}
	t0 := time.Now()
	s, err := d.start(&it)
	if err != nil {
		return it, fmt.Errorf("daemon: %w", err)
	}
	it.layer["build.fabric_s"] = time.Since(t0).Seconds()

	t1 := time.Now()
	s.do(control.WireRequest{Op: "hello"})
	aq := make([]uint32, len(daemonTenants)) // granted AQ ids, in tenant order
	for i, g := range daemonTenants {
		aq[i] = s.do(g).ID
	}
	// Three open-loop drivers offer 1.2x the 10 Gbps trunk: it stays
	// saturated, so a session's work depends little on the seed.
	drivers := []control.WireRequest{
		{Op: "attach", Tenant: "web", ID: aq[0], Kind: "websearch", Load: 0.5, CC: "cubic"},
		{Op: "attach", Tenant: "mining", ID: aq[1], Kind: "datamining", Load: 0.45, CC: "dctcp"},
		{Op: "attach", Tenant: "gold", ID: aq[2], Kind: "websearch", Load: 0.25, CC: "cubic"},
	}
	for i, a := range drivers {
		a.Seed = d.seed*16 + uint64(i) + 1
		s.do(a)
	}
	it.layer["build.attach_s"] = time.Since(t1).Seconds()

	pr.beginRun()
	reads := []control.WireRequest{
		{Op: "stats"}, {Op: "trace", Count: 64}, {Op: "fingerprint"}, {Op: "list"},
	}
	var churnID uint32
	var statsBytes []float64
	for w := 0; w < daemonWindows; w++ {
		s.do(control.WireRequest{Op: "step", Count: 1})
		r := reads[w%len(reads)]
		resp := s.do(r)
		if r.Op == "stats" {
			statsBytes = append(statsBytes, float64(len(resp.Data)))
		}
		if w%daemonWriteEvery == daemonWriteEvery-1 {
			k := w / daemonWriteEvery
			if k%2 == 0 {
				s.do(control.WireRequest{Op: "set_weight", ID: aq[0], Weight: float64(1 + k%3)})
			} else {
				s.do(control.WireRequest{Op: "set_rate", ID: aq[2], Bandwidth: float64(1+k%3) * 1e9})
			}
		}
		switch w % daemonChurnEvery {
		case 20:
			resp := s.do(control.WireRequest{Op: "attach", Tenant: "churn", ID: aq[3], Kind: "fixed",
				Size: 200_000, Load: 0.05, Seed: d.seed*16 + uint64(w)})
			churnID = resp.ID
		case 45:
			s.do(control.WireRequest{Op: "detach", ID: churnID})
		}
	}
	resp := s.do(control.WireRequest{Op: "fingerprint"})
	pr.endRun()
	var fp struct {
		Fingerprint string `json:"fingerprint"`
	}
	it.digest = "fingerprint" + errorDigest
	if !resp.OK {
		it.failed-- // counted once, by the digest check
	} else if json.Unmarshal(resp.Data, &fp) == nil && fp.Fingerprint != "" {
		it.digest = fp.Fingerprint
	}

	s.stop()
	if s.lastErr != nil {
		fmt.Printf("daemon: last error: %v\n", s.lastErr)
	}
	it.layer["svc.stats_bytes"] = median(statsBytes)
	d.counters(&it, s.fab)
	return it, nil
}

// counters reads the stopped fabric's public counters: the trunk's
// packets, the granted AQs' counters and the cluster's sync accounting.
// The service loop has exited, so the fabric is quiescent.
func (d *daemon) counters(it *iteration, fab *service.Fabric) {
	snap := fab.Snapshot(false)
	var pkts, arrived, drops, marks float64
	for _, p := range snap.Pipes {
		pkts += float64(p.TxPackets)
	}
	for _, t := range snap.Tenants {
		arrived += float64(t.AQ.Arrived)
		drops += float64(t.AQ.Drops)
		marks += float64(t.AQ.Marks)
	}
	it.work["net.pkts_delivered"] = pkts
	it.work["aq.arrived"] = arrived
	it.work["aq.drops"] = drops
	it.work["aq.marks"] = marks
	syncCounters(it, fab.SyncStats())

	// Step overhead: the mean step round trip minus the cluster's own
	// advance time per window.
	var stepMS float64
	for _, v := range it.samples["step"] {
		stepMS += v
	}
	st := fab.SyncStats()
	it.layer["svc.step_overhead_ms"] = (stepMS - float64(st.AdvanceNS)/1e6) / daemonWindows
}

// syncCounters records a cluster's synchronization accounting. Rounds,
// dispatched domain-runs and flushed messages are work counts; the rest
// is host time.
func syncCounters(it *iteration, st sim.SyncStats) {
	var runs, busy float64
	for _, l := range st.Domains {
		runs += float64(l.Runs)
		busy += float64(l.BusyNS)
	}
	it.work["sync.rounds"] = float64(st.Windows)
	it.work["sync.flushed_msgs"] = float64(st.FlushedMsgs)
	it.work["sync.runs_per_round"] = ratio(runs, float64(st.Windows))
	it.layer["sync.overlap"] = ratio(busy, float64(st.AdvanceNS))
	it.layer["sync.barrier_ms"] = float64(st.BarrierNS) / 1e6
	it.layer["sync.advance_ms"] = float64(st.AdvanceNS) / 1e6
}
