package figures

import (
	"fmt"
	"strings"
)

// Report is one output a figure command prints under its -fig name. Text
// takes the simulation runs per data point; reports without a simulation
// ignore it.
type Report struct {
	Name string
	Text func(runs int) string
}

// The figure commands' reports, in the order -fig all prints them.
var (
	// Characterization is pichar's: the single-inference characterization.
	Characterization = []Report{
		{"2", fixed(Figure2)}, {"3", fixed(Figure3)}, {"4", fixed(Figure4)},
		{"5", fixed(Figure5)}, {"t1", fixed(Table1)},
	}
	// Optimization is piopt's: the optimization studies.
	Optimization = []Report{
		{"8", fixed(Figure8)}, {"9", fixed(Figure9)}, {"11", fixed(Figure11)},
		{"14", fixed(Figure14)}, {"energy", fixed(EnergyTable)},
		{"schedules", fixed(ScheduleAblation)},
	}
	// Workload is pisim's: the arrival-rate simulations.
	Workload = []Report{
		{"7", Figure7}, {"10", Figure10}, {"12", Figure12}, {"13", Figure13},
		{"multiclient", MultiClientStudy},
	}
)

// fixed adapts a report that runs no simulation.
func fixed(fn func() string) func(int) string { return func(int) string { return fn() } }

// Choices lists the -fig values reports accept, e.g. "2, 3, t1, or all".
func Choices(reports []Report) string {
	var b strings.Builder
	for _, r := range reports {
		b.WriteString(r.Name + ", ")
	}
	return b.String() + "or all"
}

// Select returns the reports -fig names: all of them for "all", else the
// one called fig.
func Select(reports []Report, fig string) ([]Report, error) {
	if fig == "all" {
		return reports, nil
	}
	for _, r := range reports {
		if r.Name == fig {
			return []Report{r}, nil
		}
	}
	return nil, fmt.Errorf("unknown figure %q (want %s)", fig, Choices(reports))
}
