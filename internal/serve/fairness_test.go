package serve

import (
	"testing"

	"privinf/internal/obs"
)

// Scheduler fairness tests drive the refill scheduler directly with fake
// sessions: a grant is "completed" by popping it from the session's control
// mailbox and reporting the pre-compute back, so every scenario is a
// deterministic sequential replay of the pick policy.

func fakeSession(model string) *session {
	return &session{model: model, m: &mux{ctrl: newMailbox[ctrlMsg]()}}
}

// settle registers the sessions and completes grants until the scheduler
// goes quiescent.
func settle(sc *scheduler, sessions []*session) {
	for _, s := range sessions {
		sc.register(s)
	}
	drain(sc, sessions)
}

// drain completes outstanding grants until no more arrive.
func drain(sc *scheduler, sessions []*session) {
	for {
		progressed := false
		for _, s := range sessions {
			if s.m.ctrl.count(func(cm ctrlMsg) bool { return cm.grant }) == 0 {
				continue
			}
			s.m.ctrl.pop() // fake sessions receive nothing but grants
			sc.added(s)
			sc.grantDone(s)
			progressed = true
		}
		if !progressed {
			return
		}
	}
}

func fillOf(sc *scheduler, sessions []*session) []int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	fill := make([]int, len(sessions))
	for i, s := range sessions {
		fill[i] = s.bufCount
	}
	return fill
}

// TestSchedulerFairnessHotColdModels is the refill-fairness regression: a
// hot model with three sessions must not starve a cold model's lone
// client. Under the old global largest-deficit policy the budget of 8
// spreads evenly (2 per session, cold gets 2); under max-min
// fairness each model gets half the budget, so the cold
// client fills to capacity.
func TestSchedulerFairnessHotColdModels(t *testing.T) {
	const (
		capacity = 4
		budget   = 8
	)
	sc := newScheduler(capacity, budget, 1, &obs.Gauge{})
	cold := fakeSession("cold")
	sessions := []*session{cold, fakeSession("hot"), fakeSession("hot"), fakeSession("hot")}
	settle(sc, sessions)

	fill := fillOf(sc, sessions)
	if fill[0] != capacity {
		t.Errorf("cold session buffered %d, want full capacity %d (fill %v)", fill[0], capacity, fill)
	}
	hot := fill[1] + fill[2] + fill[3]
	if hot != budget-capacity {
		t.Errorf("hot model buffered %d total, want %d (fill %v)", hot, budget-capacity, fill)
	}
	if sc.used() != budget {
		t.Errorf("scheduler used %d, want the full budget %d", sc.used(), budget)
	}
}

// TestSchedulerSetBudgetGrows checks the autoscaler's runtime budget lever:
// raising the budget after quiescence hands out the newly admitted refills
// without any other event.
func TestSchedulerSetBudgetGrows(t *testing.T) {
	const capacity = 3
	sc := newScheduler(capacity, 2, 1, &obs.Gauge{})
	sessions := []*session{fakeSession("m"), fakeSession("m")}
	settle(sc, sessions)
	if got := sc.used(); got != 2 {
		t.Fatalf("used %d under budget 2, want 2", got)
	}

	sc.setBudget(6)
	drain(sc, sessions)
	if got := sc.used(); got != 6 {
		t.Errorf("used %d after raising budget to 6, want 6", got)
	}
	fill := fillOf(sc, sessions)
	if fill[0] != capacity || fill[1] != capacity {
		t.Errorf("fill %v after raise, want both at capacity %d", fill, capacity)
	}
}
