package router

import (
	"fmt"
	"testing"
)

// fakeFleet builds n replicas with no live backends — enough for
// hash-ring tests, which only read URL and inflight.
func fakeFleet(n int) []*Replica {
	out := make([]*Replica, n)
	for i := range out {
		out[i] = newReplica(fmt.Sprintf("http://replica-%d:8080", i))
	}
	return out
}

func TestConsistentHashIsStable(t *testing.T) {
	fleet := fakeFleet(4)
	ring := newHashRing(fleet)
	for _, key := range []string{"credit", "credit@v2", "hiring", "compas"} {
		first := ring.pick(key, fleet)
		for i := 0; i < 50; i++ {
			if got := ring.pick(key, fleet); got != first {
				t.Fatalf("key %q moved from %s to %s with no fleet change", key, first.URL, got.URL)
			}
		}
	}
}

func TestConsistentHashSpreadsKeys(t *testing.T) {
	fleet := fakeFleet(4)
	ring := newHashRing(fleet)
	hits := make(map[*Replica]int)
	for i := 0; i < 256; i++ {
		hits[ring.pick(fmt.Sprintf("model-%d", i), fleet)]++
	}
	// 256 keys over 4 replicas: every replica must see a meaningful
	// share. A broken ring concentrates everything on one node.
	for i, r := range fleet {
		if hits[r] < 256/4/4 {
			t.Fatalf("replica-%d got %d of 256 keys — ring badly skewed: %v", i, hits[r], hits)
		}
	}
}

// TestConsistentHashMinimalRemapping is the property that names the
// algorithm: removing one replica only remaps that replica's keys.
func TestConsistentHashMinimalRemapping(t *testing.T) {
	fleet := fakeFleet(4)
	ring := newHashRing(fleet)
	keys := make([]string, 200)
	before := make([]*Replica, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("model-%d", i)
		before[i] = ring.pick(keys[i], fleet)
	}
	// Replica 2 leaves the candidate set (evicted); survivors' keys must
	// not move.
	reduced := []*Replica{fleet[0], fleet[1], fleet[3]}
	for i, key := range keys {
		after := ring.pick(key, reduced)
		if before[i] != fleet[2] && after != before[i] {
			t.Fatalf("key %q moved from %s to %s though its home never left", key, before[i].URL, after.URL)
		}
		if before[i] == fleet[2] && after == fleet[2] {
			t.Fatalf("key %q still routed to the evicted replica", key)
		}
	}
}

func TestConsistentHashSpillsUnderBoundedLoad(t *testing.T) {
	fleet := fakeFleet(4)
	ring := newHashRing(fleet)
	key := "credit"
	home := ring.pick(key, fleet)

	// Pile in-flight load onto the home replica far past loadFactor× the
	// mean: the walk must spill to a different replica.
	home.inflight.Store(100)
	spill := ring.pick(key, fleet)
	if spill == home {
		t.Fatal("bounded-load hash kept routing to an overloaded home")
	}
	// And the spill target is itself stable while the imbalance lasts.
	if again := ring.pick(key, fleet); again != spill {
		t.Fatalf("spill target flapped: %s then %s", spill.URL, again.URL)
	}

	// Load drains: the key goes home again (cache locality restored).
	home.inflight.Store(0)
	if got := ring.pick(key, fleet); got != home {
		t.Fatalf("after drain key routed to %s, want home %s", got.URL, home.URL)
	}
}

func TestConsistentHashSingleCandidate(t *testing.T) {
	fleet := fakeFleet(3)
	ring := newHashRing(fleet)
	only := []*Replica{fleet[2]}
	if got := ring.pick("credit", only); got != fleet[2] {
		t.Fatal("single candidate must always win")
	}
}
