package nn

import "fmt"

// Dataset describes an evaluation dataset by input geometry.
type Dataset struct {
	Name    string
	Res     int // square input resolution
	Chans   int
	Classes int
}

// The paper's three datasets (§3).
var (
	CIFAR100     = Dataset{Name: "CIFAR-100", Res: 32, Chans: 3, Classes: 100}
	TinyImageNet = Dataset{Name: "TinyImageNet", Res: 64, Chans: 3, Classes: 200}
	ImageNet     = Dataset{Name: "ImageNet", Res: 224, Chans: 3, Classes: 1000}
)

// Datasets lists the evaluation datasets in paper order.
var Datasets = []Dataset{CIFAR100, TinyImageNet, ImageNet}

// archBuilder accumulates layers while tracking current tensor geometry.
type archBuilder struct {
	a    Arch
	c    int // current channels
	h, w int
}

func (b *archBuilder) conv(cout, k int) *archBuilder {
	b.a.Layers = append(b.a.Layers, ArchLayer{
		Kind: Conv, Cin: b.c, Cout: cout, H: b.h, W: b.w, K: k,
	})
	b.c = cout
	return b
}

func (b *archBuilder) relu() *archBuilder {
	b.a.Layers = append(b.a.Layers, ArchLayer{Kind: ReLULayer, Units: b.c * b.h * b.w})
	return b
}

func (b *archBuilder) pool() *archBuilder {
	b.a.Layers = append(b.a.Layers, ArchLayer{Kind: AvgPool, Cin: b.c, H: b.h, W: b.w})
	b.h /= 2
	b.w /= 2
	return b
}

func (b *archBuilder) globalPool() *archBuilder {
	b.a.Layers = append(b.a.Layers, ArchLayer{Kind: GlobalPool, Cin: b.c, H: b.h, W: b.w})
	b.h, b.w = 1, 1
	return b
}

func (b *archBuilder) fc(out int) *archBuilder {
	in := b.c * b.h * b.w
	b.a.Layers = append(b.a.Layers, ArchLayer{Kind: FC, In: in, Out: out})
	b.c, b.h, b.w = out, 1, 1
	return b
}

// basicBlock appends a ResNet basic block (conv-relu-conv-add-relu); the
// residual add is elementwise and free in the protocol's share algebra, so
// it is not materialized as a layer.
func (b *archBuilder) basicBlock(width int) *archBuilder {
	return b.conv(width, 3).relu().conv(width, 3).relu()
}

// NewResNet18 builds the CIFAR-style ResNet-18 the paper evaluates:
// conv1 + four stages of two basic blocks at widths 64/128/256/512, average
// pooling between stages (downsampling removed per §3), global pool, FC.
// It has 17 conv layers — the paper's "17 linear layers in ResNet18".
func NewResNet18(d Dataset) Arch {
	b := &archBuilder{
		a: Arch{Name: "ResNet-18", Dataset: d.Name, Classes: d.Classes},
		c: d.Chans, h: d.Res, w: d.Res,
	}
	b.conv(64, 3).relu()
	widths := []int{64, 128, 256, 512}
	for si, w := range widths {
		if si > 0 {
			b.pool()
		}
		b.basicBlock(w).basicBlock(w)
	}
	b.globalPool().fc(d.Classes)
	return b.a
}

// NewResNet32 builds the classic CIFAR ResNet-32: conv1 + three stages of
// five basic blocks at widths 16/32/64.
func NewResNet32(d Dataset) Arch {
	b := &archBuilder{
		a: Arch{Name: "ResNet-32", Dataset: d.Name, Classes: d.Classes},
		c: d.Chans, h: d.Res, w: d.Res,
	}
	b.conv(16, 3).relu()
	widths := []int{16, 32, 64}
	for si, w := range widths {
		if si > 0 {
			b.pool()
		}
		for blk := 0; blk < 5; blk++ {
			b.basicBlock(w)
		}
	}
	b.globalPool().fc(d.Classes)
	return b.a
}

// NewVGG16 builds VGG-16 with average pooling (per §3) and the standard
// 4096-wide classifier head.
func NewVGG16(d Dataset) Arch {
	b := &archBuilder{
		a: Arch{Name: "VGG-16", Dataset: d.Name, Classes: d.Classes},
		c: d.Chans, h: d.Res, w: d.Res,
	}
	groups := [][]int{
		{64, 64}, {128, 128}, {256, 256, 256}, {512, 512, 512}, {512, 512, 512},
	}
	for gi, g := range groups {
		for _, w := range g {
			b.conv(w, 3).relu()
		}
		if gi < len(groups)-1 || d.Res > 32 {
			b.pool()
		} else {
			// At 32x32 the fifth pool would collapse below 1x1 after the
			// classifier reshape; standard CIFAR VGG pools here too.
			b.pool()
		}
	}
	b.fc(4096).relu().fc(4096).relu().fc(d.Classes)
	return b.a
}

// NetworkNames lists the evaluated networks in paper order.
var NetworkNames = []string{"ResNet-32", "VGG-16", "ResNet-18"}

// NewArch builds a named network on a dataset.
func NewArch(name string, d Dataset) (Arch, error) {
	switch name {
	case "ResNet-18":
		return NewResNet18(d), nil
	case "ResNet-32":
		return NewResNet32(d), nil
	case "VGG-16":
		return NewVGG16(d), nil
	}
	return Arch{}, fmt.Errorf("nn: unknown network %q", name)
}
