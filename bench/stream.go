package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"

	"github.com/smartdpss/smartdpss/internal/engine"
	"github.com/smartdpss/smartdpss/internal/serve"
)

// Stream workload shape: the dpss-serve ingest path for many tenants,
// without disk. Checkpoints and scrapes are staggered across tenants (a
// tenant checkpoints when slot+tenant is a multiple of checkpointEvery),
// as a multi-tenant service spreads them, so every tick carries a share.
// Restores are staggered by day: tenant t restores at its checkpoint on
// the days d with d ≡ t (mod restoreDays), so each day of 64 tenants
// holds two.
const (
	streamTenants   = 64
	streamDays      = 365
	slotsPerDay     = 24
	checkpointEvery = 24 // slots between a tenant's Snapshot + scrape
	restoreDays     = 32 // days between a tenant's Restores of its snapshot
)

// streamArm is one policy configuration tenants cycle through.
type streamArm struct {
	name   string
	policy engine.Policy
	opts   engine.Options
}

// streamArms returns the four arms, named as streamArmNames. The fleet
// arm is BenchmarkFleetDispatch's four-unit fleet.
func streamArms() []streamArm {
	fleet := engine.DefaultOptions()
	fleet.CommitWindow = 12
	fleet.Fleet = []engine.UnitSpec{
		{CapacityMW: 0.5, MinLoadFrac: 0.3, FuelUSDPerMWh: 38, StartupUSD: 20, CO2KgPerMWh: 700},
		{CapacityMW: 0.25, MinLoadFrac: 0.2, FuelUSDPerMWh: 45, StartupUSD: 10, CO2KgPerMWh: 500},
		{CapacityMW: 0.25, MinLoadFrac: 0.2, FuelUSDPerMWh: 52, FuelQuadUSD: 4, CO2KgPerMWh: 400},
		{CapacityMW: 0.1, FuelUSDPerMWh: 60, StartupLagSlots: 1, CO2KgPerMWh: 300},
	}
	def := engine.DefaultOptions()
	return []streamArm{
		{streamArmNames[0], engine.PolicySmartDPSS, fleet},
		{streamArmNames[1], engine.PolicySmartDPSS, def},
		{streamArmNames[2], engine.PolicyLyapunov, def},
		{streamArmNames[3], engine.PolicyImpatient, def},
	}
}

// tenant is one streamed session and what the loop keeps for it.
type tenant struct {
	arm         *streamArm
	stepSpan    string
	traces      *engine.Traces
	sess        *engine.Session
	snap        []byte
	checkpoints uint64
	report      []byte // pass 0's Finish report, as JSON
}

// runStreamWorkload steps every tenant one slot per tick, round-robin,
// pass after pass over the horizon. One operation is a day of ticks: it
// holds every tenant's checkpoint once, so operations are alike, where a
// single tick's cost depends on which tenants' checkpoints fall on it.
func runStreamWorkload(o runOpts, tr *tracer) (*result, error) {
	nTenants, days := streamTenants, streamDays
	if o.small {
		nTenants, days = 4, 2
	}
	arms := streamArms()
	newSessions := func(ts []*tenant) error {
		for _, tn := range ts {
			id := tr.begin("engine.new_session", -1, -1)
			sess, err := engine.NewSession(tn.arm.policy, tn.arm.opts, tn.traces.Horizon())
			tr.end(id)
			if err != nil {
				return err
			}
			tn.sess, tn.checkpoints = sess, 0
		}
		return nil
	}
	tenants, setup, err := timeSetup(o, func() ([]*tenant, error) {
		ts := make([]*tenant, nTenants)
		for t := range ts {
			arm := &arms[t%len(arms)]
			tc := engine.DefaultTraceConfig()
			tc.Days = days
			tc.Seed = subSeed(o.seed, t)
			id := tr.begin("engine.generate_traces", -1, -1)
			traces, err := engine.GenerateTraces(tc)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			ts[t] = &tenant{arm: arm, stepSpan: "session.step." + arm.name, traces: traces}
		}
		return ts, newSessions(ts)
	})
	if err != nil {
		return nil, err
	}

	horizon := tenants[0].traces.Horizon()
	var scrape bytes.Buffer
	var probe streamProbe
	s := newSampler(o, tr)
	for pass := 0; pass == 0 || s.more(); pass++ {
		if pass > 0 {
			var err error
			s.aside(func() { err = newSessions(tenants) })
			if err != nil {
				return nil, err
			}
		}
		slot := 0
		for ; slot < horizon && (pass == 0 || s.more()); slot += slotsPerDay {
			s.do(float64(slotsPerDay*len(tenants)), func(c opCtx) error {
				for d := range slotsPerDay {
					if err := tick(tenants, slot+d, &scrape, c); err != nil {
						return err
					}
				}
				return nil
			})
			if tr != nil && pass == 0 && slot == horizon/2/slotsPerDay*slotsPerDay {
				s.aside(func() { probe = probeCheckpoints(tenants, &scrape) })
			}
		}
		if slot == horizon {
			s.aside(func() { finishPass(s, tenants, pass) })
		}
	}
	s.stop()
	verifyStream(s, tenants, &scrape)

	res, err := s.result(setup)
	if err != nil || tr == nil {
		return res, err
	}
	res.metrics = append(res.metrics, streamLayers(tr.closed(), probe)...)
	return res, nil
}

// tick steps and commits every tenant's next slot, and runs the
// checkpoint work that falls due on it.
func tick(tenants []*tenant, slot int, scrape *bytes.Buffer, c opCtx) error {
	done := slot + 1
	for t, tn := range tenants {
		in := tn.traces.InputAt(slot)
		id := c.begin(tn.stepSpan)
		_, err := tn.sess.Step(in)
		c.end(id)
		if err != nil {
			return fmt.Errorf("tenant %d step: %w", t, err)
		}
		id = c.begin("session.commit")
		_, err = tn.sess.Commit()
		c.end(id)
		if err != nil {
			return fmt.Errorf("tenant %d commit: %w", t, err)
		}
		if (done+t)%checkpointEvery != 0 {
			continue
		}
		id = c.begin("sim.snapshot")
		tn.snap, err = tn.sess.Snapshot()
		c.end(id)
		if err != nil {
			return fmt.Errorf("tenant %d snapshot: %w", t, err)
		}
		tn.checkpoints++
		id = c.begin("serve.scrape")
		err = scrapeTenant(tn, scrape)
		c.end(id)
		if err != nil {
			return fmt.Errorf("tenant %d scrape: %w", t, err)
		}
		if (slot/slotsPerDay-t%restoreDays+restoreDays)%restoreDays == 0 {
			id = c.begin("sim.restore")
			err = tn.sess.Restore(tn.snap)
			c.end(id)
			if err != nil {
				return fmt.Errorf("tenant %d restore: %w", t, err)
			}
		}
	}
	return nil
}

// scrapeTenant renders the tenant's /metrics exposition into buf, as the
// daemon's handler does.
func scrapeTenant(tn *tenant, buf *bytes.Buffer) error {
	buf.Reset()
	return serve.WriteExposition(buf, serve.MetricsSnapshot{
		Policy:      string(tn.sess.Policy()),
		Controller:  tn.sess.ControllerName(),
		Status:      tn.sess.Status(),
		LPFailures:  tn.sess.LPFailures(),
		Checkpoints: tn.checkpoints,
	})
}

// finishPass finishes every session of a complete pass. Pass 0 keeps the
// reports; every later pass must reproduce them byte for byte.
func finishPass(s *sampler, tenants []*tenant, pass int) {
	for t, tn := range tenants {
		rep, err := tn.sess.Finish()
		if err != nil {
			s.fail(fmt.Errorf("pass %d tenant %d finish: %w", pass, t, err))
			continue
		}
		data, err := json.Marshal(rep)
		if err != nil {
			s.fail(fmt.Errorf("pass %d tenant %d: %w", pass, t, err))
			continue
		}
		if pass == 0 {
			tn.report = data
		} else if !bytes.Equal(data, tn.report) {
			s.fail(fmt.Errorf("pass %d tenant %d: report differs from pass 0", pass, t))
		}
	}
}

// verifyStream checks the batch≡stream invariant: each tenant's streamed
// pass-0 report, Restores included, equals engine.Simulate on the same
// options and traces. Each tenant's exposition must also be valid
// OpenMetrics.
func verifyStream(s *sampler, tenants []*tenant, scrape *bytes.Buffer) {
	for t, tn := range tenants {
		rep, err := engine.Simulate(tn.arm.policy, tn.arm.opts, tn.traces)
		if err != nil {
			s.fail(fmt.Errorf("tenant %d batch run: %w", t, err))
			continue
		}
		data, err := json.Marshal(rep)
		if err != nil {
			s.fail(fmt.Errorf("tenant %d: %w", t, err))
			continue
		}
		if !bytes.Equal(data, tn.report) {
			s.fail(fmt.Errorf("tenant %d (%s): streamed report differs from engine.Simulate", t, tn.arm.name))
		}
		if err := scrapeTenant(tn, scrape); err != nil {
			s.fail(fmt.Errorf("tenant %d scrape: %w", t, err))
		} else if err := serve.ValidateExposition(scrape.Bytes()); err != nil {
			s.fail(fmt.Errorf("tenant %d exposition: %w", t, err))
		}
	}
}

// streamProbe holds checkpoint sizes and allocations, measured once in
// the middle of pass 0 (both calls only read the session).
type streamProbe struct {
	snapBytes, snapAllocKB, scrapeBytes, scrapeAllocKB float64
}

func probeCheckpoints(tenants []*tenant, scrape *bytes.Buffer) streamProbe {
	var p streamProbe
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, tn := range tenants {
		snap, err := tn.sess.Snapshot()
		if err == nil {
			p.snapBytes += float64(len(snap))
		}
	}
	runtime.ReadMemStats(&m1)
	for _, tn := range tenants {
		if scrapeTenant(tn, scrape) == nil {
			p.scrapeBytes += float64(scrape.Len())
		}
	}
	runtime.ReadMemStats(&m2)
	n := float64(len(tenants))
	p.snapBytes /= n
	p.scrapeBytes /= n
	p.snapAllocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / n / 1024
	p.scrapeAllocKB = float64(m2.TotalAlloc-m1.TotalAlloc) / n / 1024
	return p
}

// streamLayers turns the stream's spans into per-layer metrics.
func streamLayers(spans []closedSpan, p streamProbe) []metric {
	q := func(name, metricName, unit string, pct, scale float64) metric {
		xs := selfTimes(spans, name)
		return metric{metricName, unit, percentile(xs, pct) / scale, len(xs)}
	}
	ms := []metric{q("engine.new_session", "engine.new_session_us", "us", 50, 1e3)}
	for _, pct := range []float64{50, 99} {
		for _, arm := range streamArmNames {
			ms = append(ms, q("session.step."+arm, fmt.Sprintf("session.step_ns_p%g.%s", pct, arm), "ns", pct, 1))
		}
	}
	return append(ms,
		q("session.commit", "session.commit_ns_p50", "ns", 50, 1),
		q("session.commit", "session.commit_ns_p99", "ns", 99, 1),
		q("sim.snapshot", "sim.snapshot_us_p50", "us", 50, 1e3),
		q("sim.snapshot", "sim.snapshot_us_p99", "us", 99, 1e3),
		metric{"sim.snapshot_bytes", "bytes", p.snapBytes, 0},
		metric{"sim.snapshot_alloc_kb", "KB", p.snapAllocKB, 0},
		q("serve.scrape", "serve.scrape_us_p50", "us", 50, 1e3),
		metric{"serve.scrape_bytes", "bytes", p.scrapeBytes, 0},
		metric{"serve.scrape_alloc_kb", "KB", p.scrapeAllocKB, 0},
		q("sim.restore", "sim.restore_us_p50", "us", 50, 1e3),
		q("sim.restore", "sim.restore_us_p99", "us", 99, 1e3),
	)
}
