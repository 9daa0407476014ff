package coord

import (
	"runtime"
	"sync/atomic"
	"time"
)

// CoarseClock is an engine-wide monotonic clock with amortized reads:
// one atomic nanosecond word that workers refresh at natural
// boundaries (iteration start/end, backoff sleeps) and everything else
// reads for free. The exchange hot path used to call
// time.Now().UnixNano() per flushed frame and per gate tick — a vDSO
// call plus a fresh timestamp computation each time; with the coarse
// clock those sites cost one shared atomic load.
//
// Readings are nanoseconds since the clock's creation, always ≥ 1 (so
// a reading never collides with a zero "unset" sentinel). Concurrent
// refreshes may store values a few nanoseconds out of order; durations
// computed from one goroutine's own Refresh results are exact, and
// Now() is monotone up to that refresher jitter — coarse by design.
type CoarseClock struct {
	base  time.Time
	nanos atomic.Int64
}

// NewCoarseClock returns a running clock whose readings start at 1.
func NewCoarseClock() *CoarseClock {
	c := &CoarseClock{base: time.Now()}
	c.nanos.Store(1)
	return c
}

// Refresh takes a real monotonic reading, publishes it, and returns it.
func (c *CoarseClock) Refresh() int64 {
	n := int64(time.Since(c.base)) + 1
	c.nanos.Store(n)
	return n
}

// Now returns the last published reading without touching the wall
// clock. It is as stale as the gap since anyone's last Refresh.
func (c *CoarseClock) Now() int64 { return c.nanos.Load() }

// Backoff waiting tiers. The yield tier comes first: on an
// oversubscribed or single-core host a pure spin starves the very
// producer being waited on, so the cheapest tier is runtime.Gosched
// (a handoff within the Go scheduler, no syscall when there is nothing
// to run). After backoffYieldRounds the backoff escalates to sleeping,
// doubling from BackoffSleepMin to BackoffSleepMax.
const (
	backoffYieldRounds = 16
	// BackoffSleepMin is the first sleep duration of the sleep tier.
	BackoffSleepMin = 20 * time.Microsecond
	// BackoffSleepMax caps the sleep tier; it bounds both wakeup
	// latency and the interval between a parked worker's fixpoint
	// checks. Kept close to BackoffSleepMin: the trajectory suite's
	// coordination-bound cells (small deltas, many workers) pay the cap
	// as wakeup latency on the critical path, and a 200µs cap measurably
	// slowed them where 50µs (the old flat park sleep) does not.
	BackoffSleepMax = 50 * time.Microsecond
)

// Backoff is the shared adaptive spin→yield→sleep helper behind
// park(), dwsGate() and sspGate(). The zero value is ready to use;
// each wait starts from a fresh one.
type Backoff struct {
	// Clk, when set, is refreshed after every sleep so stale coarse
	// readings cannot outlive a sleep tick.
	Clk   *CoarseClock
	round uint32
	sleep time.Duration
}

// Pause blocks the caller for the current tier's duration and
// escalates. It reports whether it slept — the expensive tier —
// which callers use to amortize costly checks (an O(n) TryFinish, a
// clock refresh) onto sleep ticks only.
func (b *Backoff) Pause() bool {
	if b.round < backoffYieldRounds {
		b.round++
		runtime.Gosched()
		return false
	}
	if b.sleep == 0 {
		b.sleep = BackoffSleepMin
	} else if b.sleep < BackoffSleepMax {
		b.sleep *= 2
		if b.sleep > BackoffSleepMax {
			b.sleep = BackoffSleepMax
		}
	}
	time.Sleep(b.sleep)
	if b.Clk != nil {
		b.Clk.Refresh()
	}
	return true
}
