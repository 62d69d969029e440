package macromodel

import (
	"fmt"

	"hlpower/internal/bitutil"
	"hlpower/internal/rtlib"
	"hlpower/internal/sim"
	"hlpower/internal/stats"
)

// Table3DModel is the Gupta–Najm three-dimensional table model [41]:
// switched capacitance indexed by quantized (average input signal
// probability, average input activity, average output activity). Empty
// bins fall back to the nearest populated bin along the activity axes,
// then to the global mean.
type Table3DModel struct {
	ModuleName string
	Bins       int
	WidthA     int
	WidthB     int
	table      []float64
	count      []int
	globalMean float64
	outFn      func(a, b uint64) uint64
}

func (m *Table3DModel) idx(p, di, do int) int { return (p*m.Bins+di)*m.Bins + do }

func (m *Table3DModel) quantize(v float64) int {
	b := int(v * float64(m.Bins))
	if b >= m.Bins {
		b = m.Bins - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}

// cycleStats returns the (signal probability, input activity, output
// activity) coordinates of one cycle, each normalized to [0,1].
func (m *Table3DModel) cycleStats(aPrev, bPrev, aCur, bCur uint64) (p, di, do float64) {
	wIn := m.WidthA + m.WidthB
	ones := bitutil.OnesCount(aCur&bitutil.Mask(m.WidthA)) +
		bitutil.OnesCount(bCur&bitutil.Mask(m.WidthB))
	p = float64(ones) / float64(wIn)
	di = float64(bitutil.Hamming(aPrev, aCur)+bitutil.Hamming(bPrev, bCur)) / float64(wIn)
	oPrev := m.outFn(aPrev, bPrev)
	oCur := m.outFn(aCur, bCur)
	wOut := 64
	do = float64(bitutil.Hamming(oPrev, oCur)) / float64(wOut)
	return p, di, do
}

// FitTable3D characterizes the table from a training stream. bins of 8
// with a few thousand training cycles populates the reachable region.
func FitTable3D(mod *rtlib.Module, trainA, trainB []uint64, bins int, delay sim.DelayModel) (*Table3DModel, error) {
	if bins < 2 {
		return nil, fmt.Errorf("macromodel: need >=2 bins, got %d", bins)
	}
	truth, err := GroundTruth(mod, trainA, trainB, delay)
	if err != nil {
		return nil, err
	}
	outFn, err := functionalOutput(mod)
	if err != nil {
		return nil, err
	}
	m := &Table3DModel{
		ModuleName: mod.Name,
		Bins:       bins,
		WidthA:     len(mod.A),
		WidthB:     len(mod.B),
		table:      make([]float64, bins*bins*bins),
		count:      make([]int, bins*bins*bins),
		outFn:      outFn,
	}
	m.globalMean = stats.Mean(truth)
	for i := range truth {
		var bp, bc uint64
		if m.WidthB > 0 {
			bp, bc = trainB[i], trainB[i+1]
		}
		p, di, do := m.cycleStats(trainA[i], bp, trainA[i+1], bc)
		k := m.idx(m.quantize(p), m.quantize(di), m.quantize(do))
		m.table[k] += truth[i]
		m.count[k]++
	}
	for k := range m.table {
		if m.count[k] > 0 {
			m.table[k] /= float64(m.count[k])
		}
	}
	return m, nil
}

func (m *Table3DModel) Name() string { return "3d-table" }

// PredictCycle looks up the quantized bin, widening the search ring by
// ring until a populated bin is found.
func (m *Table3DModel) PredictCycle(aPrev, bPrev, aCur, bCur uint64) float64 {
	p, di, do := m.cycleStats(aPrev, bPrev, aCur, bCur)
	bp, bi, bo := m.quantize(p), m.quantize(di), m.quantize(do)
	if k := m.idx(bp, bi, bo); m.count[k] > 0 {
		return m.table[k]
	}
	for radius := 1; radius < m.Bins; radius++ {
		var sum float64
		n := 0
		for dp := -radius; dp <= radius; dp++ {
			for dd := -radius; dd <= radius; dd++ {
				for dq := -radius; dq <= radius; dq++ {
					x, y, z := bp+dp, bi+dd, bo+dq
					if x < 0 || y < 0 || z < 0 || x >= m.Bins || y >= m.Bins || z >= m.Bins {
						continue
					}
					if k := m.idx(x, y, z); m.count[k] > 0 {
						sum += m.table[k]
						n++
					}
				}
			}
		}
		if n > 0 {
			return sum / float64(n)
		}
	}
	return m.globalMean
}

func (m *Table3DModel) PredictStream(as, bs []uint64) float64 { return streamAverage(m, as, bs) }
