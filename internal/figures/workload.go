package figures

import (
	"fmt"

	"privinf/internal/cost"
	"privinf/internal/device"
	"privinf/internal/nn"
	"privinf/internal/sim"
)

// Workload figures run the discrete-event simulator. `runs` is the number
// of independent 24-hour simulations averaged per point (the paper uses 50;
// smaller values are fine for smoke runs — the simulator is deterministic
// per seed either way).

func simPoint(cfg sim.Config, perMin float64, runs int) sim.Stats {
	cfg.ArrivalsPerMinute = perMin
	cfg.Seed = 12345
	st, err := sim.RunMany(cfg, runs)
	if err != nil {
		panic("figures: " + err.Error()) // configs are internally constructed
	}
	return st
}

// Figure7 reproduces the baseline characterization under arrival rates:
// Server-Garbler, ResNet-18/TinyImageNet, 128 GB client storage, with the
// latency decomposed into online, offline, and queueing components.
func Figure7(runs int) string {
	a := nn.NewResNet18(nn.TinyImageNet)
	s := cost.BaselineScenario(a)
	b := s.Compute()
	cfg := sim.Config{
		OfflineSeconds:         b.Offline(),
		OnDemandOfflineSeconds: b.Offline(),
		OnlineSeconds:          b.Online(),
		Capacity:               s.BufferCapacity(128*int64(cost.GB), 0),
		MaxConcurrent:          1,
		HorizonSeconds:         sim.DefaultHorizon,
	}
	t := newTable(fmt.Sprintf(
		"Figure 7: mean PI latency vs arrival rate (Server-Garbler, R18/Tiny, 128 GB, %d runs)", runs))
	t.row("req per min", "online min", "offline min", "queue min", "mean total min")
	for _, denom := range []float64{180, 120, 95, 65, 50, 40, 30} {
		st := simPoint(cfg, 1/denom, runs)
		t.row(fmt.Sprintf("1/%.0f", denom),
			fmt.Sprintf("%.1f", st.MeanOnline/60),
			fmt.Sprintf("%.1f", st.MeanOffline/60),
			fmt.Sprintf("%.1f", st.MeanQueueWait/60),
			fmt.Sprintf("%.1f", st.MeanLatency/60))
	}
	return t.String()
}

// Figure10 reproduces LPHE vs RLP under client-storage budgets.
func Figure10(runs int) string {
	a := nn.NewResNet18(nn.TinyImageNet)
	s := cost.ProposedScenario(a)
	rates := map[int64][]float64{
		8:   {104, 54, 37, 28, 22, 19},
		16:  {104, 54, 37, 28, 22, 19},
		32:  {85, 43, 28, 21, 17, 14},
		64:  {85, 43, 28, 21, 17, 14},
		140: {68, 33, 22, 17, 13, 11},
	}
	t := newTable(fmt.Sprintf("Figure 10: LPHE vs RLP mean latency (minutes, %d runs)", runs))
	t.row("storage GB", "mode", "rates: 1/x min ->", "", "", "", "", "")
	for _, gb := range []int64{8, 16, 32, 64, 140} {
		for _, mode := range []sim.Mode{sim.LPHE, sim.RLP} {
			cfg := sim.FromScenario(s, gb*int64(cost.GB), mode, device.Atom)
			cells := []string{fmt.Sprintf("%d", gb), mode.String()}
			for _, denom := range rates[gb] {
				st := simPoint(cfg, 1/denom, runs)
				cells = append(cells, fmt.Sprintf("%.0f@1/%.0f", st.MeanLatency/60, denom))
			}
			t.row(cells...)
		}
	}
	return t.String()
}

// fig12Rates are the per-panel arrival-rate denominators (minutes) of
// Figure 12.
var fig12Rates = map[string][]float64{
	"ResNet-32/CIFAR-100":    {9, 5.5, 4, 3, 2.5, 2},
	"VGG-16/CIFAR-100":       {9.6, 6, 4.3, 3.4, 2.8, 2.4},
	"ResNet-18/CIFAR-100":    {12, 9, 7, 6, 5, 4.5},
	"ResNet-32/TinyImageNet": {53, 27, 17, 13, 10.6, 8.9},
	"VGG-16/TinyImageNet":    {55, 28, 18, 14, 11, 9},
	"ResNet-18/TinyImageNet": {100, 54, 36, 28, 22, 18},
}

// Figure12 reproduces the headline end-to-end comparison: baseline
// Server-Garbler at 16/32/64 GB vs the proposed protocol at 16 GB, across
// all six network/dataset pairs.
func Figure12(runs int) string {
	t := newTable(fmt.Sprintf("Figure 12: mean latency (minutes) vs arrival rate, %d runs", runs))
	t.row("pair", "config", "per-rate mean latency ->", "", "", "", "", "")
	for _, a := range archPairs(nn.CIFAR100, nn.TinyImageNet) {
		rates := fig12Rates[a.String()]
		sg := cost.BaselineScenario(a)
		sgB := sg.Compute()
		for _, gb := range []int64{16, 32, 64} {
			cfg := sim.Config{
				OfflineSeconds:         sgB.Offline(),
				OnDemandOfflineSeconds: sgB.Offline(),
				OnlineSeconds:          sgB.Online(),
				Capacity:               sg.BufferCapacity(gb*int64(cost.GB), 0),
				MaxConcurrent:          1,
				HorizonSeconds:         sim.DefaultHorizon,
			}
			cells := []string{a.String(), fmt.Sprintf("SG %dGB", gb)}
			for _, denom := range rates {
				st := simPoint(cfg, 1/denom, runs)
				cells = append(cells, fmt.Sprintf("%.1f", st.MeanLatency/60))
			}
			t.row(cells...)
		}
		cfg := sim.FromScenario(cost.ProposedScenario(a), 16*int64(cost.GB), sim.LPHE, device.Atom)
		cells := []string{a.String(), "Proposed 16GB"}
		for _, denom := range rates {
			st := simPoint(cfg, 1/denom, runs)
			cells = append(cells, fmt.Sprintf("%.1f", st.MeanLatency/60))
		}
		t.row(cells...)
	}
	return t.String()
}

// Figure13 reproduces the compute-capability sensitivity study:
// client {Atom, i5, i5x2} x server {1x, 2x, 4x}, 16 GB client storage,
// ResNet-18/TinyImageNet, both protocols.
func Figure13(runs int) string {
	a := nn.NewResNet18(nn.TinyImageNet)
	rates := []float64{65, 31, 20, 15, 12, 10}
	clients := []device.Device{device.Atom, device.I5, device.I5x2}
	servers := []float64{1, 2, 4}

	t := newTable(fmt.Sprintf("Figure 13: sensitivity to device capability (minutes, %d runs)", runs))
	t.row("server", "client", "proto", "per-rate mean latency ->", "", "", "", "", "")
	for _, sk := range servers {
		srv := device.ScaleServer(device.EPYC, sk)
		for _, cl := range clients {
			for _, proto := range []cost.Protocol{cost.ServerGarbler, cost.ClientGarbler} {
				scn := cost.Scenario{
					Arch: a, Proto: proto, Client: cl, Server: srv,
					LinkBps: 1e9, LPHE: proto == cost.ClientGarbler,
				}
				if proto == cost.ServerGarbler {
					scn.UploadFrac = 0.5
				}
				b := scn.Compute()
				cfg := sim.Config{
					OfflineSeconds:         b.Offline(),
					OnDemandOfflineSeconds: b.Offline(),
					OnlineSeconds:          b.Online(),
					Capacity:               scn.BufferCapacity(16*int64(cost.GB), 0),
					MaxConcurrent:          1,
					HorizonSeconds:         sim.DefaultHorizon,
				}
				cells := []string{srv.Name, cl.Name, protoShort(proto)}
				for _, denom := range rates {
					st := simPoint(cfg, 1/denom, runs)
					cells = append(cells, fmt.Sprintf("%.0f", st.MeanLatency/60))
				}
				t.row(cells...)
			}
		}
	}
	return t.String()
}

func protoShort(p cost.Protocol) string {
	if p == cost.ClientGarbler {
		return "CG"
	}
	return "SG"
}
