package simtime

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestNowStartsAtZero(t *testing.T) {
	s := NewScheduler()
	if s.Now() != 0 {
		t.Fatalf("new scheduler Now() = %v, want 0", s.Now())
	}
}

func TestAfterFiresAtDeadline(t *testing.T) {
	s := NewScheduler()
	var firedAt Time = -1
	s.After(3*time.Second, func(now Time) { firedAt = now })

	if n := s.Advance(2 * time.Second); n != 0 {
		t.Fatalf("Advance(2s) fired %d timers, want 0", n)
	}
	if firedAt != -1 {
		t.Fatalf("timer fired early at %v", firedAt)
	}
	if n := s.Advance(2 * time.Second); n != 1 {
		t.Fatalf("Advance(+2s) fired %d timers, want 1", n)
	}
	if firedAt != Time(3*time.Second) {
		t.Fatalf("fired at %v, want T+3s", firedAt)
	}
	if s.Now() != Time(4*time.Second) {
		t.Fatalf("Now() = %v, want T+4s", s.Now())
	}
}

func TestCallbackObservesDeadlineAsNow(t *testing.T) {
	s := NewScheduler()
	var observed Time
	s.After(time.Second, func(now Time) { observed = s.Now() })
	s.Advance(10 * time.Second)
	if observed != Time(time.Second) {
		t.Fatalf("callback observed Now()=%v, want T+1s", observed)
	}
}

func TestEqualDeadlinesFireInCreationOrder(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Second, func(Time) { order = append(order, i) })
	}
	s.Advance(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("firing order %v not creation order", order)
		}
	}
}

func TestTickEveryReArms(t *testing.T) {
	s := NewScheduler()
	var fires []Time
	s.TickEvery(2*time.Second, func(now Time) { fires = append(fires, now) })
	s.Advance(7 * time.Second)
	want := []Time{Time(2 * time.Second), Time(4 * time.Second), Time(6 * time.Second)}
	if len(fires) != len(want) {
		t.Fatalf("got %d fires %v, want %d", len(fires), fires, len(want))
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fire %d at %v, want %v", i, fires[i], want[i])
		}
	}
}

func TestStopFromOwnCallback(t *testing.T) {
	s := NewScheduler()
	count := 0
	var tm *Timer
	tm = s.TickEvery(time.Second, func(Time) {
		count++
		if count == 3 {
			tm.Stop()
		}
	})
	s.Advance(10 * time.Second)
	if count != 3 {
		t.Fatalf("ticked %d times after self-stop, want 3", count)
	}
}

func TestStopBeforeFiring(t *testing.T) {
	s := NewScheduler()
	fired := false
	tm := s.After(time.Second, func(Time) { fired = true })
	tm.Stop()
	tm.Stop() // double-stop must be safe
	s.Advance(5 * time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", s.Pending())
	}
}

func TestNestedScheduling(t *testing.T) {
	// A callback scheduling a timer inside the same Advance window must
	// still fire within that window.
	s := NewScheduler()
	var second Time = -1
	s.After(time.Second, func(Time) {
		s.After(time.Second, func(now Time) { second = now })
	})
	s.Advance(3 * time.Second)
	if second != Time(2*time.Second) {
		t.Fatalf("nested timer fired at %v, want T+2s", second)
	}
}

func TestAtClampsPast(t *testing.T) {
	s := NewScheduler()
	s.Advance(5 * time.Second)
	var firedAt Time = -1
	s.At(Time(time.Second), func(now Time) { firedAt = now })
	s.Advance(0)
	if firedAt != Time(5*time.Second) {
		t.Fatalf("past-deadline timer fired at %v, want clamp to T+5s", firedAt)
	}
}

func TestStepAdvancesToNextDeadline(t *testing.T) {
	s := NewScheduler()
	s.After(3*time.Second, func(Time) {})
	s.After(7*time.Second, func(Time) {})
	if !s.Step() {
		t.Fatal("Step() = false with pending timers")
	}
	if s.Now() != Time(3*time.Second) {
		t.Fatalf("Now() after Step = %v, want T+3s", s.Now())
	}
	if !s.Step() {
		t.Fatal("second Step() = false")
	}
	if s.Now() != Time(7*time.Second) {
		t.Fatalf("Now() after second Step = %v, want T+7s", s.Now())
	}
	if s.Step() {
		t.Fatal("Step() = true with empty queue")
	}
}

func TestRunHonorsLimit(t *testing.T) {
	s := NewScheduler()
	count := 0
	s.TickEvery(time.Second, func(Time) { count++ })
	end := s.Run(Time(10 * time.Second))
	if end != Time(10*time.Second) {
		t.Fatalf("Run returned %v, want T+10s", end)
	}
	if count != 10 {
		t.Fatalf("periodic fired %d times in 10s, want 10", count)
	}
}

func TestRunAdvancesToLimitWhenIdle(t *testing.T) {
	s := NewScheduler()
	end := s.Run(Time(time.Minute))
	if end != Time(time.Minute) || s.Now() != Time(time.Minute) {
		t.Fatalf("Run on empty queue ended at %v", end)
	}
}

func TestAdvancePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	NewScheduler().Advance(-time.Second)
}

func TestTickEveryPanicsOnZeroPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TickEvery(0) did not panic")
		}
	}()
	NewScheduler().TickEvery(0, func(Time) {})
}

func TestPendingDeadlinesSorted(t *testing.T) {
	s := NewScheduler()
	s.After(5*time.Second, func(Time) {})
	s.After(time.Second, func(Time) {})
	s.After(3*time.Second, func(Time) {})
	dl := s.PendingDeadlines()
	want := []Time{Time(time.Second), Time(3 * time.Second), Time(5 * time.Second)}
	for i := range want {
		if dl[i] != want[i] {
			t.Fatalf("deadlines %v, want %v", dl, want)
		}
	}
}

// Property: regardless of the mix of scheduled durations, timers always
// fire in non-decreasing deadline order and never before their deadline.
func TestQuickFiringOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewScheduler()
		var fired []Time
		for _, d := range delays {
			dur := time.Duration(d) * time.Millisecond
			deadline := s.Now().Add(dur)
			s.After(dur, func(now Time) {
				if now != deadline {
					t.Errorf("fired at %v, deadline %v", now, deadline)
				}
				fired = append(fired, now)
			})
		}
		s.Advance(time.Duration(1<<16) * time.Millisecond)
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(3 * time.Second)
	b := a.Add(2 * time.Second)
	if b != Time(5*time.Second) {
		t.Fatalf("Add: %v", b)
	}
	if b.Sub(a) != 2*time.Second {
		t.Fatalf("Sub: %v", b.Sub(a))
	}
	if !a.Before(b) || !b.After(a) {
		t.Fatal("Before/After disagree")
	}
	if a.Seconds() != 3 {
		t.Fatalf("Seconds: %v", a.Seconds())
	}
	if a.String() != "T+3s" {
		t.Fatalf("String: %q", a.String())
	}
}

// TestSchedulerCases pins the queue's ordering and limit contracts. Each
// case drives a fresh scheduler; fire(label) returns a callback that
// records "label@instant", and the case's firings, final Now() and count
// of still-pending timers must match exactly.
func TestSchedulerCases(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cases := []struct {
		name    string
		run     func(s *Scheduler, fire func(string) TimerFunc)
		want    []string
		now     Time
		pending int
	}{
		{
			// Every way of scheduling lands on the one heap; at a shared
			// deadline creation order decides, whatever the entry point.
			name: "same-deadline-creation-order",
			run: func(s *Scheduler, fire func(string) TimerFunc) {
				s.At(Time(ms(100)), fire("at"))
				s.AfterFunc(ms(100), fire("afterfunc"))
				s.TickEvery(ms(100), fire("tick"))
				s.After(ms(100), fire("after"))
				s.Every(ms(100), fire("every"))
				s.Advance(ms(100))
			},
			want:    []string{"at@100ms", "afterfunc@100ms", "tick@100ms", "after@100ms", "every@100ms"},
			now:     Time(ms(100)),
			pending: 2, // the two periodic timers re-armed
		},
		{
			// A re-armed periodic timer keeps its creation seq, so it still
			// fires ahead of a one-shot created after it.
			name: "periodic-rearm-keeps-creation-order",
			run: func(s *Scheduler, fire func(string) TimerFunc) {
				s.TickEvery(ms(10), fire("tick"))
				s.At(Time(ms(20)), fire("once"))
				s.Advance(ms(20))
			},
			want:    []string{"tick@10ms", "tick@20ms", "once@20ms"},
			now:     Time(ms(20)),
			pending: 1,
		},
		{
			name: "stopped-head-does-not-hide-live-timer",
			run: func(s *Scheduler, fire func(string) TimerFunc) {
				s.After(ms(10), fire("stopped")).Stop()
				s.After(ms(30), fire("live"))
				if d, ok := s.NextDeadline(); !ok || d != Time(ms(30)) {
					panic(fmt.Sprintf("NextDeadline = %v, %v; want 30ms", d, ok))
				}
				s.Step()
			},
			want: []string{"live@30ms"},
			now:  Time(ms(30)),
		},
		{
			name: "steplimit-does-not-overshoot",
			run: func(s *Scheduler, fire func(string) TimerFunc) {
				s.After(ms(50), fire("a"))
				if s.StepLimit(Time(ms(49))) {
					panic("StepLimit fired an event past its limit")
				}
				if s.Now() != 0 {
					panic(fmt.Sprintf("StepLimit moved time to %v", s.Now()))
				}
				s.StepLimit(Time(ms(50)))
			},
			want: []string{"a@50ms"},
			now:  Time(ms(50)),
		},
		{
			name: "run-stops-at-limit",
			run: func(s *Scheduler, fire func(string) TimerFunc) {
				s.After(ms(20), fire("in"))
				s.After(ms(40), fire("edge"))
				s.After(ms(41), fire("past"))
				s.Run(Time(ms(40)))
			},
			want:    []string{"in@20ms", "edge@40ms"},
			now:     Time(ms(40)),
			pending: 1,
		},
		{
			name: "one-shot-stops-itself",
			run: func(s *Scheduler, fire func(string) TimerFunc) {
				var tm *Timer
				tm = s.After(ms(10), func(now Time) {
					fire("self")(now)
					tm.Stop()
				})
				s.After(ms(10), fire("next"))
				s.Advance(ms(100))
				tm.Stop() // after firing: harmless
			},
			want: []string{"self@10ms", "next@10ms"},
			now:  Time(ms(100)),
		},
		{
			name: "periodic-stops-itself",
			run: func(s *Scheduler, fire func(string) TimerFunc) {
				var tm TimerHandle
				n := 0
				tm = s.Every(ms(10), func(now Time) {
					fire("tick")(now)
					if n++; n == 2 {
						tm.Stop()
					}
				})
				s.Advance(ms(100))
			},
			want: []string{"tick@10ms", "tick@20ms"},
			now:  Time(ms(100)),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheduler()
			var got []string
			fire := func(label string) TimerFunc {
				return func(now Time) { got = append(got, fmt.Sprintf("%s@%v", label, now.Duration())) }
			}
			tc.run(s, fire)
			if !slices.Equal(got, tc.want) {
				t.Fatalf("fired %v, want %v", got, tc.want)
			}
			if s.Now() != tc.now {
				t.Fatalf("Now() = %v, want %v", s.Now(), tc.now)
			}
			if s.Pending() != tc.pending {
				t.Fatalf("Pending() = %d after the case, want %d", s.Pending(), tc.pending)
			}
		})
	}
}

// opSeq is a random program over the scheduler for the property test.
type opSeq struct {
	seed int64
	ops  []byte
}

// Generate implements quick.Generator.
func (opSeq) Generate(r *rand.Rand, size int) reflect.Value {
	n := 40 + r.Intn(160)
	ops := make([]byte, n)
	r.Read(ops)
	return reflect.ValueOf(opSeq{seed: r.Int63(), ops: ops})
}

// TestQuickEventQueue drives arbitrary interleaved schedule/Stop/Advance
// sequences through the scheduler and asserts the three queue
// invariants: timers never fire out of timestamp order, a stopped timer
// never fires, and the queue drains to empty.
func TestQuickEventQueue(t *testing.T) {
	property := func(prog opSeq) bool {
		rng := rand.New(rand.NewSource(prog.seed))
		s := NewScheduler()
		type scheduled struct {
			timer     *Timer
			cancelled bool
			fired     bool
		}
		var pool []*scheduled
		lastFired := Time(-1)
		ok := true
		for _, op := range prog.ops {
			switch op % 4 {
			case 0, 1: // schedule a one-shot, relative or absolute
				d := time.Duration(rng.Intn(50)) * time.Millisecond
				sc := &scheduled{}
				fn := func(now Time) {
					if now < lastFired {
						ok = false // out-of-order firing
					}
					lastFired = now
					if sc.cancelled {
						ok = false // stopped timer fired
					}
					sc.fired = true
				}
				if op%4 == 0 {
					sc.timer = s.After(d, fn)
				} else {
					sc.timer = s.At(s.Now().Add(d), fn)
				}
				pool = append(pool, sc)
			case 2: // stop a random timer; a fired one's Stop must stay inert
				if len(pool) == 0 {
					continue
				}
				sc := pool[rng.Intn(len(pool))]
				if !sc.fired {
					sc.cancelled = true
				}
				sc.timer.Stop()
			case 3: // advance a random window
				s.Advance(time.Duration(rng.Intn(40)) * time.Millisecond)
			}
		}
		// Drain: everything still pending must fire (or be stopped) by the
		// horizon; afterwards the queue must be empty.
		s.Advance(time.Hour)
		if s.Pending() != 0 {
			return false
		}
		for _, sc := range pool {
			if sc.cancelled == sc.fired {
				return false // a live timer was lost, or a stopped one fired
			}
		}
		return ok
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
