// Package figures regenerates every table and figure of the paper's
// evaluation as formatted text reports. Each function returns the same
// rows/series the paper plots, computed from the cost model or the
// discrete-event simulator; cmd tools and the benchmark harness both call
// into this package so the outputs stay consistent.
package figures

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"privinf/internal/calib"
	"privinf/internal/cost"
	"privinf/internal/nn"
	"privinf/internal/wireless"
)

// table builds an aligned text table.
type table struct {
	b  strings.Builder
	tw *tabwriter.Writer
}

func newTable(title string) *table {
	t := &table{}
	t.b.WriteString(title + "\n")
	t.tw = tabwriter.NewWriter(&t.b, 2, 4, 2, ' ', 0)
	return t
}

func (t *table) row(cells ...string) {
	fmt.Fprintln(t.tw, strings.Join(cells, "\t"))
}

func (t *table) String() string {
	t.tw.Flush()
	return t.b.String()
}

func archPairs(datasets ...nn.Dataset) []nn.Arch {
	var out []nn.Arch
	for _, d := range datasets {
		for _, n := range nn.NetworkNames {
			a, err := nn.NewArch(n, d)
			if err != nil {
				panic(err) // names come from NetworkNames
			}
			out = append(out, a)
		}
	}
	return out
}

// Figure2 reproduces the protocol-phase annotations of Figure 2 for
// ResNet-18/TinyImageNet: per-phase storage and communication.
func Figure2() string {
	a := nn.NewResNet18(nn.TinyImageNet)
	s := cost.BaselineScenario(a)
	off, on := s.CommProfiles()
	t := newTable("Figure 2: Server-Garbler protocol annotations (ResNet-18, TinyImageNet)")
	t.row("quantity", "value")
	t.row("ReLUs", fmt.Sprintf("%d", a.TotalReLUs()))
	t.row("client storage (GCs)", fmt.Sprintf("%.1f GB", float64(calib.GCStorageBytes(a))/cost.GB))
	t.row("server storage (encodings)", fmt.Sprintf("%.1f GB", float64(calib.EncodingStorageBytes(a))/cost.GB))
	t.row("offline upload", fmt.Sprintf("%.2f GB", float64(off.UpBytes)/cost.GB))
	t.row("offline download", fmt.Sprintf("%.2f GB", float64(off.DownBytes)/cost.GB))
	t.row("online upload", fmt.Sprintf("%.3f GB", float64(on.UpBytes)/cost.GB))
	t.row("online download", fmt.Sprintf("%.3f GB", float64(on.DownBytes)/cost.GB))
	return t.String()
}

// Figure3 reproduces the per-inference client storage bars (GB) for every
// network/dataset pair.
func Figure3() string {
	t := newTable("Figure 3: client-side pre-processing storage per inference (GB)")
	t.row("dataset", "network", "ReLUs", "storage GB")
	for _, a := range archPairs(nn.CIFAR100, nn.TinyImageNet, nn.ImageNet) {
		t.row(a.Dataset, a.Name,
			fmt.Sprintf("%d", a.TotalReLUs()),
			fmt.Sprintf("%.0f", cost.Figure3ClientStorageGB(a)))
	}
	return t.String()
}

// Figure4 reproduces the per-inference compute-latency bars: HE.Eval,
// GC.Eval (client) and GC.Garble (server), in minutes.
func Figure4() string {
	t := newTable("Figure 4: compute latency per inference (minutes)")
	t.row("dataset", "network", "HE.Eval", "GC.Eval", "GC.Garble")
	for _, a := range archPairs(nn.CIFAR100, nn.TinyImageNet) {
		b := cost.BaselineScenario(a).Compute()
		t.row(a.Dataset, a.Name,
			fmt.Sprintf("%.2f", b.OffHE/60),
			fmt.Sprintf("%.2f", b.OnEval/60),
			fmt.Sprintf("%.2f", b.OffGarble/60))
	}
	return t.String()
}

// Figure5 reproduces the communication-latency bandwidth sweep for
// ResNet-18/TinyImageNet at an even TDD split.
func Figure5() string {
	a := nn.NewResNet18(nn.TinyImageNet)
	off, on := cost.BaselineScenario(a).CommProfiles()
	p := off.Add(on)
	t := newTable("Figure 5: communication latency vs bandwidth (ResNet-18, TinyImageNet, even split)")
	t.row("bandwidth Mbps", "upload min", "download min", "total min")
	for _, mbps := range []float64{150, 350, 550, 750, 950} {
		l := wireless.Link{TotalBps: mbps * 1e6, UploadFrac: 0.5}
		up := float64(p.UpBytes) * 8 / l.UploadBps() / 60
		down := float64(p.DownBytes) * 8 / l.DownloadBps() / 60
		t.row(fmt.Sprintf("%.0f", mbps),
			fmt.Sprintf("%.1f", up), fmt.Sprintf("%.1f", down), fmt.Sprintf("%.1f", up+down))
	}
	downShare := float64(p.DownBytes) / float64(p.UpBytes+p.DownBytes)
	return t.String() + fmt.Sprintf("download share of total traffic: %.1f%%\n", downShare*100)
}

// Table1 reproduces the Server-Garbler time breakdown for
// ResNet-18/TinyImageNet at 1 Gb/s.
func Table1() string {
	a := nn.NewResNet18(nn.TinyImageNet)
	b := cost.BaselineScenario(a).Compute()
	t := newTable("Table 1: Server-Garbler totals, ResNet-18 on TinyImageNet (seconds)")
	t.row("phase", "GC", "HE", "SS", "Comms", "Total")
	t.row("Offline",
		fmt.Sprintf("%.1f", b.OffGarble), fmt.Sprintf("%.0f", b.OffHE),
		"0.00", fmt.Sprintf("%.0f", b.OffComm), fmt.Sprintf("%.0f", b.Offline()))
	t.row("Online",
		fmt.Sprintf("%.0f", b.OnEval), "0.00",
		fmt.Sprintf("%.2f", b.OnSS), fmt.Sprintf("%.1f", b.OnComm), fmt.Sprintf("%.0f", b.Online()))
	t.row("Total",
		fmt.Sprintf("%.0f", b.OffGarble+b.OnEval), fmt.Sprintf("%.0f", b.OffHE),
		fmt.Sprintf("%.2f", b.OnSS), fmt.Sprintf("%.0f", b.OffComm+b.OnComm),
		fmt.Sprintf("%.0f", b.Total()))
	return t.String()
}

// Figure8 reproduces the client-storage comparison between the baseline
// Server-Garbler and the proposed Client-Garbler protocol.
func Figure8() string {
	t := newTable("Figure 8: client-side storage, Server-Garbler vs Client-Garbler (GB)")
	t.row("dataset", "network", "Server-Garbler", "Client-Garbler", "reduction")
	var ratios float64
	var n int
	for _, a := range archPairs(nn.CIFAR100, nn.TinyImageNet) {
		sg, cg := cost.Figure8StorageGB(a)
		t.row(a.Dataset, a.Name,
			fmt.Sprintf("%.1f", sg), fmt.Sprintf("%.1f", cg), fmt.Sprintf("%.1fx", sg/cg))
		ratios += sg / cg
		n++
	}
	return t.String() + fmt.Sprintf("average reduction: %.1fx\n", ratios/float64(n))
}

// Figure9 reproduces sequential vs layer-parallel HE latency.
func Figure9() string {
	t := newTable("Figure 9: sequential vs layer-parallel HE latency on the server (seconds)")
	t.row("dataset", "network", "sequential", "LPHE", "speedup")
	var speedups float64
	var n int
	for _, a := range archPairs(nn.CIFAR100, nn.TinyImageNet) {
		seq := calib.HESumSeconds(a)
		par := calib.HEMaxSeconds(a)
		t.row(a.Dataset, a.Name,
			fmt.Sprintf("%.0f", seq), fmt.Sprintf("%.0f", par), fmt.Sprintf("%.1fx", seq/par))
		speedups += seq / par
		n++
	}
	return t.String() + fmt.Sprintf("average LPHE speedup: %.1fx\n", speedups/float64(n))
}

// Figure11 reproduces the WSA sweep: communication latency vs upload
// fraction for both protocols, with optima marked.
func Figure11() string {
	a := nn.NewResNet18(nn.TinyImageNet)
	fracs := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}

	sgOff, sgOn := cost.BaselineScenario(a).CommProfiles()
	sgP := sgOff.Add(sgOn)
	cgS := cost.ProposedScenario(a)
	cgOff, cgOn := cgS.CommProfiles()
	cgP := cgOff.Add(cgOn)

	t := newTable("Figure 11: communication latency vs upload allocation at 1 Gb/s (minutes)")
	t.row("upload frac", "Server-Garbler", "Client-Garbler")
	sgT := wireless.Sweep(sgP, 1e9, fracs)
	cgT := wireless.Sweep(cgP, 1e9, fracs)
	for i, f := range fracs {
		t.row(fmt.Sprintf("%.1f", f), fmt.Sprintf("%.1f", sgT[i]/60), fmt.Sprintf("%.1f", cgT[i]/60))
	}
	sgOpt := wireless.OptimalUploadFrac(sgP)
	cgOpt := wireless.OptimalUploadFrac(cgP)
	return t.String() + fmt.Sprintf(
		"optimal: Server-Garbler %.0f Mbps download, Client-Garbler %.0f Mbps upload\n",
		(1-sgOpt)*1000, cgOpt*1000)
}

// Figure14 reproduces the future-optimization waterfall: total latency and
// offline fraction under accumulating speedups.
func Figure14() string {
	a := nn.NewResNet18(nn.TinyImageNet)

	sgStar := cost.BaselineScenario(a)
	sgStar.LPHE = true
	sgStar.UploadFrac = 0

	mk := func(name string, s cost.Scenario) [3]string {
		b := s.Compute()
		return [3]string{name, fmt.Sprintf("%.0f", b.Total()), fmt.Sprintf("%.0f%%", b.OfflineFraction()*100)}
	}

	cg := cost.ProposedScenario(a)
	fase := cg
	fase.GCSpeedup = 19
	gc100 := cg
	gc100.GCSpeedup = 100
	he1000 := gc100
	he1000.HESpeedup = 1000
	bw10 := he1000
	bw10.BWFactor = 10
	fewer := bw10
	fewer.ReLUFactor = 10

	t := newTable("Figure 14: total latency under accumulating future optimizations (ResNet-18, TinyImageNet)")
	t.row("configuration", "total s", "offline share")
	for _, r := range [][3]string{
		mk("Server-Garbler* (LPHE+WSA)", sgStar),
		mk("Client-Garbler", cg),
		mk("+ GC FASE 19x", fase),
		mk("+ GC 100x", gc100),
		mk("+ HE 1000x", he1000),
		mk("+ BW 10x", bw10),
		mk("+ 10x fewer ReLUs", fewer),
	} {
		t.row(r[0], r[1], r[2])
	}
	return t.String()
}

// EnergyTable reproduces the §5.1 energy analysis.
func EnergyTable() string {
	a := nn.NewResNet18(nn.TinyImageNet)
	sg := cost.BaselineScenario(a).ClientEnergyJoules()
	cg := cost.ProposedScenario(a).ClientEnergyJoules()
	t := newTable("Client GC energy per inference (ResNet-18, TinyImageNet)")
	t.row("protocol", "role", "energy J", "per 10k ReLUs")
	t.row("Server-Garbler", "evaluator", fmt.Sprintf("%.0f", sg),
		fmt.Sprintf("%.2f J", calib.EvalJoulesPerReLU*1e4))
	t.row("Client-Garbler", "garbler", fmt.Sprintf("%.0f", cg),
		fmt.Sprintf("%.2f J", calib.GarbleJoulesPerReLU*1e4))
	return t.String() + fmt.Sprintf("garbling/evaluating energy ratio: %.1fx\n", cg/sg)
}
