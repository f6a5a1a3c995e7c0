package uarch

import "clustergate/internal/trace"

// This file holds the struct-of-arrays half of the Execute hot loop: the
// per-batch scratch slices, the decode pass that fills them, and the
// cache/branch-predictor probe passes that run over them in program order
// before the timing pass prices anything. Splitting the work this way
// keeps each pass's working set small and its branches predictable — the
// cache pass touches only cache arrays, the branch pass only predictor
// tables, the timing pass only the scratch slices and cycle rings — while
// the strict program-order walk inside every stateful pass keeps all
// counters byte-identical to the old per-instruction interleaving (locked
// by TestGoldenCounters and the determinism tests).

// Instruction flags derived from the op class, used by the timing pass.
const (
	flagLoad uint8 = 1 << iota
	flagStore
	flagBranch
	flagDiv
)

// info-byte layout: low three bits carry the memory-access class
// (memNone..memDemand), the upper bits carry per-instruction conditions
// discovered by the probe passes.
const (
	infoClassMask  uint8 = 0x07
	infoLegacy     uint8 = 1 << 3 // fetch block missed the µop cache
	infoMispredict uint8 = 1 << 4 // branch direction was mispredicted
)

// buildOpLUT maps an op class to its timing-pass flags (low byte) and base
// execution latency (bits 8+), so the hot loop resolves both with a single
// table load. Loads map to latency zero because their latency always comes
// from the memory class; every unknown op defaults to a single cycle like
// the old switch.
func buildOpLUT(cfg *Config) (t [256]uint32) {
	for i := range t {
		t[i] = 1 << 8
	}
	lat := func(op trace.OpClass, l int) { t[op] = t[op]&0xff | uint32(l)<<8 }
	fl := func(op trace.OpClass, f uint8) { t[op] |= uint32(f) }
	fl(trace.OpLoad, flagLoad)
	fl(trace.OpStore, flagStore)
	fl(trace.OpBranch, flagBranch)
	fl(trace.OpDiv, flagDiv)
	fl(trace.OpFPDiv, flagDiv)
	lat(trace.OpMul, 3)
	lat(trace.OpFPAdd, 4)
	lat(trace.OpFPMul, 4)
	lat(trace.OpDiv, cfg.DivLatency)
	lat(trace.OpFPDiv, cfg.DivLatency)
	lat(trace.OpLoad, 0)
	return
}

// probeBuf holds one chunk's probe-pass output. Only probe-pass
// discoveries live here; the timing pass reads the instruction stream
// itself straight from the caller's batch, which both passes walk
// chunk-by-chunk anyway.
// Each instruction's probe result packs into one word — the info byte in
// the low 8 bits, the front-end bubble (I-side miss cycles) above it — so
// the handoff between the passes is one store and one load per
// instruction over a single contiguous stream.
type probeBuf struct {
	word []uint64 // bubble<<8 | mem class | legacy-decode | mispredict bits
}

// grow sizes the buffer for an n-instruction chunk. It is grown once to
// the chunk size and reused for every subsequent Execute call, so
// steady-state execution performs no heap allocations (pinned by
// TestExecuteZeroAllocs).
func (b *probeBuf) grow(n int) {
	if cap(b.word) < n {
		b.word = make([]uint64, n)
		return
	}
	b.word = b.word[:n]
}

// probePass walks the chunk once in program order, resolving everything
// that depends on machine state other than timing: the I-side structures
// and the data-side hierarchy (in the one order that matters, because the
// L2 is shared between instruction and data misses), plus the branch
// predictor — its tables are disjoint from every cache, so resolving
// directions in the same sweep reorders nothing observable. Each
// instruction's front-end bubble and condition bits land in buf; op-mix
// and branch events accumulate locally. Cache and predictor state depend
// only on the instruction stream, never on timing, which is what makes
// hoisting this pass out of the timing loop exact.
func (c *Core) probePass(batch []trace.Instruction, s *probeBuf) {
	h := c.hier
	bp := c.bp
	lastBlock := c.lastBlock
	legacy := c.legacyDecode
	var branches, taken, miss uint64
	var hist [16]uint32 // histogram over op classes (masked: classes fit in 4 bits)
	// Histograms over the classify byte, one per access direction: the
	// byte fully determines an access's event deltas, so crediting the
	// counters once per chunk from these replaces five-plus memory
	// read-modify-writes per access with plain register arithmetic.
	var memHist [2][64]uint32
	for i := range batch {
		in := &batch[i]
		op := uint8(in.Op)
		hist[op&15]++
		var bub uint32
		// One I-side probe per fetch block (fetchBlock instructions of 4
		// bytes each = one 64-byte block).
		if block := in.PC / (fetchBlock * 4); block != lastBlock {
			lastBlock = block
			bub, legacy = c.probeISideBlock(in.PC)
		}
		info := uint8(0)
		if legacy {
			info = infoLegacy
		}
		switch op {
		case uint8(trace.OpLoad):
			r := h.classify(in.Addr, false)
			memHist[0][r&63]++
			info |= r & infoClassMask
		case uint8(trace.OpStore):
			r := h.classify(in.Addr, true)
			memHist[1][r&63]++
			info |= r & infoClassMask
		case uint8(trace.OpBranch):
			branches++
			if in.Taken {
				taken++
			}
			if bp.PredictAndUpdate(in.PC, in.Taken) {
				miss++
				info |= infoMispredict
			}
		}
		s.word[i] = uint64(bub)<<8 | uint64(info)
	}
	c.lastBlock = lastBlock
	c.legacyDecode = legacy
	for w, byDir := range memHist {
		for r, cnt := range byDir {
			if cnt != 0 {
				accumClassEvents(w == 1, uint8(r), uint64(cnt), &c.ev)
			}
		}
	}
	c.ev.Branches += branches
	c.ev.TakenBranches += taken
	c.ev.Mispredicts += miss
	c.ev.MulOps += uint64(hist[trace.OpMul])
	c.ev.FPOps += uint64(hist[trace.OpFPAdd] + hist[trace.OpFPMul] + hist[trace.OpFPDiv])
	c.ev.DivOps += uint64(hist[trace.OpDiv] + hist[trace.OpFPDiv])
}

// probeISideBlock models the micro-op cache, instruction cache, and ITLB
// for a new fetch block, returning the front-end bubble to charge and
// whether the block decodes through the legacy pipe.
func (c *Core) probeISideBlock(pc uint64) (bubble uint32, legacy bool) {
	var bub uint64
	if hit, _ := c.itlb.Access(pc, false); !hit {
		c.ev.ITLBMisses++
		bub += 20
	}
	if hit, _ := c.uopCache.Access(pc, false); hit {
		c.ev.UopCacheHits++
	} else {
		c.ev.UopCacheMisses++
		legacy = true
		if l1hit, _ := c.icache.Access(pc, false); l1hit {
			c.ev.L1IHits++
		} else {
			c.ev.L1IMisses++
			if l2hit, _ := c.hier.L2.Access(pc, false); l2hit {
				bub += uint64(c.cfg.L2Latency)
			} else {
				bub += uint64(c.cfg.MemLatency) / 2
			}
		}
	}
	if bub > 0 {
		c.ev.FetchBubbles += bub
	}
	return uint32(bub), legacy
}
