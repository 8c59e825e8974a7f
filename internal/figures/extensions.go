package figures

import (
	"fmt"

	"privinf/internal/cost"
	"privinf/internal/device"
	"privinf/internal/nn"
	"privinf/internal/sim"
)

// Extension studies beyond the paper's figures: the hybrid offline
// scheduler §5.2 anticipates, and the multi-client shared-server setting
// its discussion sketches.

// ScheduleAblation compares the three offline schedules — LPHE, RLP and
// the adaptive hybrid — across client storage budgets for the proposed
// protocol on ResNet-18/TinyImageNet: per-pipeline latency, concurrency,
// and steady-state pre-compute throughput.
func ScheduleAblation() string {
	a := nn.NewResNet18(nn.TinyImageNet)
	s := cost.ProposedScenario(a)
	t := newTable("Ablation: offline schedules (Client-Garbler, ResNet-18/TinyImageNet)")
	t.row("storage GB", "schedule", "pipelines", "offline s", "pre-computes/hour")
	for _, gb := range []int64{16, 32, 64, 140} {
		slots := s.BufferCapacity(gb*int64(cost.GB), 0)

		lphe := s
		lphe.LPHE = true
		lb := lphe.Compute()
		t.row(fmt.Sprintf("%d", gb), "LPHE", "1",
			fmt.Sprintf("%.0f", lb.Offline()), fmt.Sprintf("%.1f", 3600/lb.Offline()))

		rb := s.RLPBreakdown()
		conc := slots
		if device.Atom.Cores < conc {
			conc = device.Atom.Cores
		}
		if conc < 1 {
			conc = 1
		}
		t.row("", "RLP", fmt.Sprintf("%d", conc),
			fmt.Sprintf("%.0f", rb.Offline()),
			fmt.Sprintf("%.1f", float64(conc)*3600/rb.Offline()))

		plan := s.BestHybridPlan(slots)
		t.row("", "Hybrid", fmt.Sprintf("%d", plan.Pipelines),
			fmt.Sprintf("%.0f", plan.OfflineSeconds),
			fmt.Sprintf("%.1f", plan.PrecomputesPerHour))
	}
	return t.String()
}

// MultiClientStudy simulates N clients with 16 GB each sharing one server
// (§5.2's discussion): aggregate throughput scales with the client count
// while each client's storage stays small.
func MultiClientStudy(runs int) string {
	s := cost.ProposedScenario(nn.NewResNet18(nn.TinyImageNet))
	rlp := s.RLPBreakdown()
	online := s.Compute().Online()

	t := newTable(fmt.Sprintf("Multi-client RLP: N x 16 GB clients, one server (%d runs)", runs))
	t.row("clients", "per-client rate", "aggregate/min", "mean latency min", "queue min")
	for _, n := range []int{1, 3, 9} {
		for _, denom := range []float64{180, 90} {
			cfg := sim.Config{
				Clients:           n,
				Capacity:          1,
				OfflineSeconds:    rlp.Offline(),
				MaxConcurrent:     device.EPYC.Cores,
				OnlineSeconds:     online,
				ArrivalsPerMinute: 1 / denom,
				Seed:              777,
			}
			st, err := sim.RunMany(cfg, runs)
			if err != nil {
				panic("figures: " + err.Error())
			}
			t.row(fmt.Sprintf("%d", n), fmt.Sprintf("1/%.0f", denom),
				fmt.Sprintf("%.3f", float64(n)/denom),
				fmt.Sprintf("%.1f", st.MeanLatency/60),
				fmt.Sprintf("%.1f", st.MeanQueueWait/60))
		}
	}
	return t.String()
}
