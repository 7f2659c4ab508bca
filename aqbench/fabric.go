package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"time"

	"aqueue/internal/cc"
	"aqueue/internal/core"
	"aqueue/internal/fluid"
	"aqueue/internal/packet"
	"aqueue/internal/sim"
	"aqueue/internal/topo"
	"aqueue/internal/transport"
	"aqueue/internal/units"
)

// fabric is the scale workload: a k=8 fat tree (128 hosts) split into
// domains, one cross-pod CUBIC flow per host tagged with a per-host AQ at
// its edge switch, and about a million fluid background entities on the
// edge ingress tables sharing the host uplinks. Set-up (topology, fluid
// population, flows) is timed apart from the run over a fixed simulated
// horizon.
type fabric struct {
	seed     uint64
	n        int // domains
	parallel bool
}

const (
	fabricK       = 8
	fabricHorizon = 5 * sim.Millisecond
	// fabricEntities is the fluid background population, spread evenly
	// over the 32 edge switches.
	fabricEntities = 1 << 20
	// fabricEpoch is the fluid integration epoch.
	fabricEpoch = 500 * sim.Microsecond
	// fabricGroup is how many tagged entities share one AQ grant.
	fabricGroup = 8
	// fabricFillFrac is the share of each edge's entities registered as
	// untagged fixed-rate fill: a quiescent population the lane folds
	// without stepping.
	fabricFillFrac = 0.25
	// fabricBGLoad is the tagged background's offered load as a fraction
	// of each host uplink, which leaves the foreground most of the link.
	fabricBGLoad = 0.2
	// fabricFGRate is each foreground flow's AQ allocation.
	fabricFGRate = 6 * units.Gbps
)

func newFabric(seed uint64, domains int) *fabric {
	return &fabric{seed: seed, n: domains, parallel: domains > 1 && runtime.GOMAXPROCS(0) >= domains}
}

func (f *fabric) domains() (int, bool) { return f.n, f.parallel }

// fabricRun holds one built fabric.
type fabricRun struct {
	c     *sim.Cluster
	ft    *topo.FatTree
	lanes []*fluid.Lane
	// fgAQ is the first foreground AQ id on every edge table: edge host h
	// is tagged fgAQ+h, right after the background's group ids, so the
	// tables stay densely numbered.
	fgAQ packet.AQID
}

// build sets up the fabric, recording each stage's span.
func (f *fabric) build(it *iteration) *fabricRun {
	r := &fabricRun{}
	t0 := time.Now()
	r.c = sim.NewCluster(f.n)
	r.c.SetParallel(f.parallel)
	link := topo.DefaultSim()
	r.ft = topo.NewFatTreeIn(r.c, fabricK, link, link)
	t1 := time.Now()
	it.layer["build.topo_s"] = t1.Sub(t0).Seconds()

	f.buildFluid(r, link.Rate)
	t2 := time.Now()
	it.layer["build.fluid_s"] = t2.Sub(t1).Seconds()

	f.buildFlows(r)
	it.layer["build.flows_s"] = time.Since(t2).Seconds()
	return r
}

// buildFluid deploys the background on every edge switch: AQ grants in
// one batch, then a lane whose entities point at the edge's host uplinks
// for residual-rate accounting. Three of four AQ groups are fixed-rate,
// every fourth follows the CUBIC loss model; allocations undercut the
// offered rate so AQ admission sheds bytes every epoch.
func (f *fabric) buildFluid(r *fabricRun, linkRate units.BitRate) {
	half := fabricK / 2
	edges := fabricK * half
	perEdge := fabricEntities / edges
	fill := int(fabricFillFrac * float64(perEdge))
	tagged := perEdge - fill
	groups := tagged / fabricGroup
	perHost := groups / half // groups per host uplink
	r.fgAQ = packet.AQID(groups + 1)
	share := units.BitRate(fabricBGLoad * float64(linkRate) / float64(perHost*fabricGroup))
	lossPar := fluid.ParamsFor("cubic")
	lossPar.MinRate = share.BytesPerNano() / 4

	for p := 0; p < fabricK; p++ {
		for e := 0; e < half; e++ {
			sw := r.ft.Edges[p][e]
			cfgs := make([]core.Config, groups)
			for g := range cfgs {
				alloc := units.BitRate(0.8 * float64(share) * fabricGroup)
				cfgs[g] = core.Config{
					ID:    packet.AQID(g + 1),
					Rate:  alloc,
					Limit: int(math.Max(1, alloc.BytesPerNano()*float64(2*fabricEpoch))),
				}
			}
			sw.Ingress.DeployBatch(cfgs)

			lane := fluid.NewLane(sw.Engine(), sw.Ingress, fabricEpoch)
			base := (p*half + e) * half
			for h := 0; h < half; h++ {
				pipe := lane.AddPipe(r.ft.Hosts[base+h].Uplink())
				for g := h * perHost; g < (h+1)*perHost; g++ {
					cfg := fluid.EntityConfig{AQ: packet.AQID(g + 1), Rate: share, Pipe: pipe}
					if g%4 == 0 {
						cfg.Params = &lossPar
						cfg.Demand = share
					}
					lane.AddN(cfg, fabricGroup)
				}
			}
			lane.AddN(fluid.EntityConfig{Rate: share / 2, Pipe: -1}, perEdge-half*perHost*fabricGroup)
			lane.SetDeadline(fabricHorizon)
			lane.Start(0)
			r.lanes = append(r.lanes, lane)
		}
	}
}

// buildFlows starts one long CUBIC flow per host to a host in another
// pod. The seed picks the pod offset and the host rotation, so every host
// both sends and receives exactly one flow, and jitters the start times.
func (f *fabric) buildFlows(r *fabricRun) {
	rng := sim.NewRand(f.seed)
	hosts := r.ft.Hosts
	perPod := r.ft.HostsPerPod()
	podShift := 1 + rng.Intn(fabricK-1)
	rot := rng.Intn(perPod)
	half := fabricK / 2
	newCubic := cc.ByName("cubic")
	for i, src := range hosts {
		pod, idx := i/perPod, i%perPod
		dst := hosts[((pod+podShift)%fabricK)*perPod+(idx+rot)%perPod]
		aq := r.fgAQ + packet.AQID(idx%half)
		edge := r.ft.Edges[pod][idx/half]
		edge.Ingress.Deploy(core.Config{ID: aq, Rate: fabricFGRate})
		s := transport.NewSender(src, dst, 0, newCubic(), transport.Options{IngressAQ: aq})
		s.Start(sim.Time(rng.Intn(20)) * sim.Microsecond)
	}
}

func (f *fabric) iterate(pr *probe) (iteration, error) {
	it := iteration{layer: map[string]float64{}, work: map[string]float64{}, attempted: 1}
	r := f.build(&it)
	pr.beginRun()
	r.c.RunUntil(fabricHorizon)
	pr.endRun()
	r.c.Close()
	it.digest = f.counters(&it, r)
	return it, nil
}

// counters reads the run's public counters and returns its output
// digest: delivered packets, fluid delivered and dropped bytes, and the
// edge AQs' counters.
func (f *fabric) counters(it *iteration, r *fabricRun) string {
	var events, pkts float64
	for _, e := range r.c.Engines() {
		events += float64(e.Stats().Processed)
	}
	for _, h := range r.ft.Hosts {
		pkts += float64(h.RxPackets)
	}
	var epochs, skipped, delivered, dropped float64
	for _, l := range r.lanes {
		st := l.Stats()
		epochs += float64(st.EntityEpochs)
		skipped += float64(st.SkippedEntityEpochs)
		delivered += st.DeliveredBytes
		dropped += st.DroppedBytes
	}
	var aq core.AQStats
	for _, pod := range r.ft.Edges {
		for _, sw := range pod {
			for _, id := range sw.Ingress.IDs() {
				s := sw.Ingress.Lookup(id).Stats()
				aq.Arrived += s.Arrived
				aq.Drops += s.Drops
				aq.Marks += s.Marks
				aq.FluidBytes += s.FluidBytes
				aq.FluidDropped += s.FluidDropped
				aq.FluidMarked += s.FluidMarked
			}
		}
	}
	st := r.c.SyncStats()
	syncCounters(it, st)
	var busy float64
	for _, l := range st.Domains {
		busy += float64(l.BusyNS)
	}
	it.work["sim.events"] = events
	it.work["sim.events_per_pkt"] = ratio(events, pkts)
	it.work["net.pkts_delivered"] = pkts
	it.work["aq.arrived"] = float64(aq.Arrived)
	it.work["aq.drops"] = float64(aq.Drops)
	it.work["aq.marks"] = float64(aq.Marks)
	it.work["fluid.entity_epochs"] = epochs
	it.work["fluid.skipped_pct"] = 100 * ratio(skipped, epochs)
	it.layer["sim.ns_per_event"] = ratio(busy, events)

	sum := sha256.Sum256([]byte(fmt.Sprintf("%d %x %x %d %d %d %x %x %x",
		uint64(pkts), math.Float64bits(delivered), math.Float64bits(dropped),
		aq.Arrived, aq.Drops, aq.Marks,
		math.Float64bits(aq.FluidBytes), math.Float64bits(aq.FluidDropped), math.Float64bits(aq.FluidMarked))))
	return fmt.Sprintf("%x", sum[:8])
}

// checkDomains is the untimed check mode: the fabric workload on one
// domain and on two must produce identical digests — the simulator's
// core invariant, domain-count invariance.
func checkDomains(seed uint64) error {
	var digests [2]string
	for i, n := range []int{1, 2} {
		it, err := newFabric(seed, n).iterate(newProbe(false))
		if err != nil {
			return err
		}
		digests[i] = it.digest
		fmt.Printf("check: fabric seed %d on %d domain(s): digest %s, delivered %g packets, %g entity-epochs\n",
			seed, n, it.digest, it.work["net.pkts_delivered"], it.work["fluid.entity_epochs"])
	}
	if digests[0] != digests[1] {
		return fmt.Errorf("check: fabric digests differ across domain counts: %s (1 domain) vs %s (2 domains)", digests[0], digests[1])
	}
	fmt.Println("check: identical")
	return nil
}
