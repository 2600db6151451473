package server

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// TestRolloutChaosSoak drives the full closed loop under concurrent
// traffic and a seeded faultinject schedule:
//
//   - a deliberately corrupted (scattering, individually unfair) v2 is
//     deployed at a scheduled tick — the guard must roll it back on the
//     live consistency signal within one observation window;
//   - a healthy v3 is deployed and a hard input-distribution shift is
//     injected mid-window — the guard must keep the proven stable
//     (conservative drift rollback) rather than promote into a shifted
//     window it cannot judge;
//   - a healthy v4 deployed under clean traffic must auto-promote.
//
// Throughout, every client request must succeed: the stable pin never
// moves during a rollback, so the guard's verdicts are invisible to
// clients. The schedule derives from faultinject.Windows, so the whole
// soak replays identically for a fixed seed. IFAIR_TEST_ROLLOUT=1 widens
// the horizon and per-tick concurrency (set by `make test-rollout`).
// Status summarises every tracked rollout, in no particular order.
func (rm *RolloutManager) Status() []RolloutStatus {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	out := make([]RolloutStatus, 0, len(rm.byName))
	for _, ro := range rm.byName {
		out = append(out, ro.Status())
	}
	return out
}

func TestRolloutChaosSoak(t *testing.T) {
	const (
		soakSeed    = 7
		windowTicks = 12
	)
	horizon, workers, perWorker := 80, 5, 6
	if os.Getenv("IFAIR_TEST_ROLLOUT") == "1" {
		horizon, workers, perWorker = 200, 8, 8
	}

	h := newRolloutHarnessDims(t, RolloutConfig{
		Fraction:    0.3,
		Window:      windowTicks * time.Second,
		MinRequests: 60,
		// Per-feature PSI noise over a few dozen clean samples sits near
		// (bins−1)/N; 0.8 is far above that floor yet far below what the
		// injected shift produces, so drift verdicts stay deterministic.
		DriftPSI: 0.8,
	}, true, 6)
	// Materialise the rollout while only v1 exists: all later versions
	// must enter through the canary window.
	if st := h.rollout().Status(); st.Stable != 1 {
		t.Fatalf("initial stable %+v", st)
	}

	// Seeded schedule: event A deploys the corrupted v2, event B deploys
	// the healthy v3 with the drift burst starting two ticks later. The
	// tail after span is reserved for the healthy v4 promotion.
	span := horizon - 30
	wins := faultinject.Windows(soakSeed, 2, span, 6, 10)
	deployV2 := wins[0].Start
	deployV3, driftLen := wins[1].Start, wins[1].Len
	driftFrom, driftTo := deployV3+2, deployV3+2+driftLen
	deployV4 := driftTo + 4
	t.Logf("schedule: corrupt v2 @ tick %d, healthy v3 @ %d with drift [%d,%d), healthy v4 @ %d, horizon %d",
		deployV2, deployV3, driftFrom, driftTo, deployV4, horizon)

	var (
		mu       sync.Mutex
		statuses = make(map[int]int)
	)
	adoptTick := map[int]int{} // version → tick its canary window opened
	eventTick := map[string]int{}
	prev := h.rollout().Status()

	for tick := 0; tick < horizon; tick++ {
		switch tick {
		case deployV2:
			writeModelFile(t, h.dir, "credit@v2.json", scatterModel(6))
		case deployV3:
			writeModelFile(t, h.dir, "credit@v3.json", testModel(2, 6))
		case deployV4:
			// Same parameters as stable: a retrained-but-equivalent model,
			// so the only consistency gap between arms is estimator noise.
			writeModelFile(t, h.dir, "credit@v4.json", testModel(2, 6))
		}
		if tick == deployV2 || tick == deployV3 || tick == deployV4 {
			if _, _, err := h.s.Registry().Reload(); err != nil {
				t.Fatal(err)
			}
		}

		shift := 0.0
		if tick >= driftFrom && tick < driftTo {
			shift = 3.0
		}
		// Concurrent clients (distinct key spaces, seeded rows) plus a
		// metrics scrape and a status read racing the serving path.
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(soakSeed + tick*100 + w)))
				for i := 0; i < perWorker; i++ {
					row := make([]float64, h.dims)
					for j := range row {
						row[j] = rng.NormFloat64() + shift
					}
					status := h.post(fmt.Sprintf("soak-%d-%d-%d", tick, w, i), row)
					mu.Lock()
					statuses[status]++
					mu.Unlock()
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			getBody(t, h.ts.URL+"/metrics")
			h.s.Rollouts().Status()
		}()
		wg.Wait()

		h.clk.Advance(time.Second)
		h.tick()

		st := h.rollout().Status()
		if st.Canary != 0 && st.Canary != prev.Canary {
			adoptTick[st.Canary] = tick
		}
		if st.Rollbacks > prev.Rollbacks {
			eventTick[fmt.Sprintf("rollback-%d", st.Rollbacks)] = tick
			t.Logf("tick %3d: rollback #%d (canary was v%d, PSI %.3f, cons stable %.3f canary %.3f)",
				tick, st.Rollbacks, prev.Canary, st.DriftPSI, prev.StableConsistency, prev.CanaryConsistency)
		}
		if st.Promotions > prev.Promotions {
			eventTick[fmt.Sprintf("promote-%d", st.Promotions)] = tick
			t.Logf("tick %3d: promotion #%d → stable v%d", tick, st.Promotions, st.Stable)
		}
		if st.Stable != prev.Stable && !(prev.Stable == 1 && st.Stable == 4) {
			t.Fatalf("tick %d: stable moved v%d → v%d; only the healthy v4 may be promoted", tick, prev.Stable, st.Stable)
		}
		prev = st
	}

	// Every request succeeded: rollbacks never touched live traffic.
	mu.Lock()
	defer mu.Unlock()
	total := 0
	for code, n := range statuses {
		total += n
		if code != 200 {
			t.Fatalf("%d responses with status %d; the guard must be invisible to clients", n, code)
		}
	}
	if want := horizon * workers * perWorker; total != want {
		t.Fatalf("served %d requests, want %d", total, want)
	}

	final := h.rollout().Status()
	if !h.s.Registry().Quarantined("credit", 2) {
		t.Fatalf("corrupted v2 not quarantined: %+v", final)
	}
	if !h.s.Registry().Quarantined("credit", 3) {
		t.Fatalf("v3 (judged under drift) not quarantined: %+v", final)
	}
	if final.Stable != 4 || final.Promotions != 1 || final.Rollbacks != 2 {
		t.Fatalf("final state %+v, want stable v4 with 1 promotion and 2 rollbacks", final)
	}

	// Each corrupted canary fell within one observation window of its
	// adoption (plus scheduling slack for the sample-count gates).
	for i, version := range []int{2, 3} {
		rb, ok := eventTick[fmt.Sprintf("rollback-%d", i+1)]
		ad, adOK := adoptTick[version]
		if !ok || !adOK {
			t.Fatalf("missing adopt/rollback ticks for v%d (adopt %v, rollback %v)", version, adoptTick, eventTick)
		}
		if rb-ad > windowTicks+2 {
			t.Fatalf("v%d rolled back %d ticks after adoption; must fall within the %d-tick window", version, rb-ad, windowTicks)
		}
	}
}
