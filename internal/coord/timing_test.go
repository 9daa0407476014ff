package coord

import (
	"testing"
	"time"
)

func TestCoarseClockMonotone(t *testing.T) {
	c := NewCoarseClock()
	if c.Now() <= 0 {
		t.Fatal("a fresh clock must read positive (zero is the unset sentinel)")
	}
	r1 := c.Refresh()
	time.Sleep(time.Millisecond)
	r2 := c.Refresh()
	if r2 <= r1 {
		t.Fatalf("refresh not monotone: %d then %d", r1, r2)
	}
	if now := c.Now(); now != r2 {
		t.Fatalf("Now = %d, want last refresh %d", now, r2)
	}
}

func TestBackoffEscalation(t *testing.T) {
	var b Backoff
	for i := 0; i < backoffYieldRounds; i++ {
		if b.Pause() {
			t.Fatalf("round %d slept; the first %d rounds must only yield", i, backoffYieldRounds)
		}
	}
	if !b.Pause() {
		t.Fatal("sleep tier should begin after the yield rounds")
	}
	if b.sleep != BackoffSleepMin {
		t.Fatalf("first sleep = %v, want %v", b.sleep, BackoffSleepMin)
	}
	for i := 0; i < 10; i++ {
		b.Pause()
	}
	if b.sleep != BackoffSleepMax {
		t.Fatalf("sleep did not cap: %v, want %v", b.sleep, BackoffSleepMax)
	}
}

func TestBackoffRefreshesClock(t *testing.T) {
	c := NewCoarseClock()
	before := c.Now()
	b := Backoff{Clk: c}
	for !b.Pause() {
	}
	if c.Now() <= before {
		t.Fatal("a sleep tick must refresh the coarse clock")
	}
}
