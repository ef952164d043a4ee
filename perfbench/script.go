package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"rulematch/internal/server"
	"rulematch/internal/table"
)

// action is one step of a workload's script: an edit, or on ingest a
// batch of B rows to append, against one session.
type action struct {
	session *sessionInput
	edit    server.EditRequest
	batch   []table.Record
}

// script is a workload's seeded step sequence. The HTTP run and the
// traced direct-call replay draw the same actions from equal scripts.
type script struct {
	in      *inputs
	sz      sizing
	editors map[string]*editor
	rng     *rand.Rand
	deck    []int // the current round's session draws, consumed from the end
	nextRow int
}

// churnRound is how many of a round's editCycle steps go to each
// session, hottest first: a Zipf-like skew. Every round deals the same
// multiset in a seeded order, so the share of steps that meet an
// evicted session depends on the order of the draws, not on how many
// draws each session happened to get.
var churnRound = []int{4, 2, 1, 1, 1, 1}

// newScript starts the script of a workload whose sessions currently
// hold rules (by session name).
func newScript(workload string, in *inputs, sz sizing, seed int64, rules map[string][]server.RuleInfo) *script {
	sc := &script{in: in, sz: sz, editors: map[string]*editor{}, rng: rand.New(rand.NewSource(seed ^ 0x5eed))}
	if workload != "ingest" {
		kinds := allEditKinds
		if workload == "replicate" {
			kinds = thresholdEditKinds
		}
		for i, s := range in.Sessions {
			sc.editors[s.Name] = newEditor(seed*31+int64(i), "b", rules[s.Name], kinds)
		}
	}
	return sc
}

// next returns the next action; false once the ingest hold-out is used up.
func (sc *script) next() (action, bool) {
	if len(sc.editors) == 0 {
		if sc.nextRow >= len(sc.in.Holdout) {
			return action{}, false
		}
		hi := min(sc.nextRow+sc.sz.IngestBatch, len(sc.in.Holdout))
		act := action{session: sc.in.Sessions[0], batch: sc.in.Holdout[sc.nextRow:hi]}
		sc.nextRow = hi
		return act, true
	}
	s := sc.pick()
	return action{session: s, edit: sc.editors[s.Name].next()}, true
}

func (sc *script) pick() *sessionInput {
	if len(sc.in.Sessions) == 1 {
		return sc.in.Sessions[0]
	}
	if len(sc.deck) == 0 {
		for si, n := range churnRound[:len(sc.in.Sessions)] {
			for range n {
				sc.deck = append(sc.deck, si)
			}
		}
		sc.rng.Shuffle(len(sc.deck), func(i, j int) { sc.deck[i], sc.deck[j] = sc.deck[j], sc.deck[i] })
	}
	si := sc.deck[len(sc.deck)-1]
	sc.deck = sc.deck[:len(sc.deck)-1]
	return sc.in.Sessions[si]
}

// editCycle is the length of one round of the edit script: five
// (edit, inverse) pairs that together cover all seven edit ops and
// leave the rule set as it was, except that the predicate removed and
// re-added moves to the end of its rule, which the model tracks.
const editCycle = 10

// The kinds of (edit, inverse) pair an editor deals in turn: 0
// set_threshold and back, 1 tighten then relax back, 2 relax then
// tighten back, 3 remove_predicate then add_predicate, 4 add_rule then
// remove_rule. Replicate deals threshold moves only: its subject is
// the transport, and the structural edits' engine costs, which spread
// over three orders of magnitude with the rule drawn, made its write
// figure a draw of the script rather than of the replication path.
// Every round of editCycle steps still holds five tightens and five
// relaxes.
var (
	allEditKinds       = []int{0, 1, 2, 3, 4}
	thresholdEditKinds = []int{1, 2}
)

// editor generates one session's seeded edit script against a client
// side model of its rule set, in the spirit of bench.Fig6: every edit
// is followed by its inverse, so the session's state stays
// materialized around the mined rule set however long a run lasts.
type editor struct {
	rng    *rand.Rand
	prefix string
	rules  []server.RuleInfo
	queue  []server.EditRequest
	kinds  []int // the pair kinds dealt in turn
	turn   int   // index into kinds of the next pair
	added  int
}

func newEditor(seed int64, prefix string, rules []server.RuleInfo, kinds []int) *editor {
	return &editor{rng: rand.New(rand.NewSource(seed)), prefix: prefix, rules: rules, kinds: kinds}
}

func predSrc(p server.PredInfo, threshold float64) string {
	return fmt.Sprintf("%s(%s,%s) %s %s", p.Sim, p.AttrA, p.AttrB, p.Op,
		strconv.FormatFloat(threshold, 'g', -1, 64))
}

func lowerBound(op string) bool { return op == ">=" || op == ">" }

// uniqueFeature reports whether predicate pj is the only one of its
// rule on its feature, so moving its threshold or removing and
// re-adding it never meets a same-feature bound.
func uniqueFeature(r server.RuleInfo, pj int) bool {
	p := r.Preds[pj]
	for qj, q := range r.Preds {
		if qj != pj && q.Sim == p.Sim && q.AttrA == p.AttrA && q.AttrB == p.AttrB {
			return false
		}
	}
	return true
}

// pickPred draws a rule and a non-equality predicate with a feature of
// its own; minPreds is the smallest predicate count the rule may have.
// It gives up (false) when no draw qualifies.
func (e *editor) pickPred(minPreds int, ok func(p server.PredInfo) bool) (int, int, bool) {
	for range 10000 {
		ri := e.rng.Intn(len(e.rules))
		r := e.rules[ri]
		if len(r.Preds) < minPreds {
			continue
		}
		pj := e.rng.Intn(len(r.Preds))
		if r.Preds[pj].Op == "==" || !uniqueFeature(r, pj) || !ok(r.Preds[pj]) {
			continue
		}
		return ri, pj, true
	}
	return 0, 0, false
}

// stricter moves threshold t of a predicate with operator op by d in
// the tightening direction (or the loosening one when d < 0).
func stricter(op string, t, d float64) float64 {
	if lowerBound(op) {
		return round2(t + d)
	}
	return round2(t - d)
}

func round2(x float64) float64 { return math.Round(x*100) / 100 }

func inRange(t float64) bool { return t > 0.005 && t < 0.995 }

// next returns the next edit of the script.
func (e *editor) next() server.EditRequest {
	if len(e.queue) > 0 {
		req := e.queue[0]
		e.queue = e.queue[1:]
		return req
	}
	kind := e.kinds[e.turn]
	e.turn = (e.turn + 1) % len(e.kinds)
	switch kind {
	case 0: // set_threshold to a fresh value, then back
		var nt float64
		ri, pj, ok := e.pickPred(1, func(p server.PredInfo) bool {
			nt = round2(0.05 + 0.9*e.rng.Float64())
			return nt != p.Threshold
		})
		if !ok {
			return e.next()
		}
		old := e.rules[ri].Preds[pj].Threshold
		e.queue = append(e.queue, server.EditRequest{Op: "set_threshold", Rule: ri, Pred: pj, Threshold: old})
		return server.EditRequest{Op: "set_threshold", Rule: ri, Pred: pj, Threshold: nt}
	case 1, 2: // tighten then relax back, or relax then tighten back
		tighten := kind == 1
		var nt float64
		ri, pj, ok := e.pickPred(1, func(p server.PredInfo) bool {
			d := 0.05 * float64(1+e.rng.Intn(4))
			if !tighten {
				d = -d
			}
			nt = stricter(p.Op, p.Threshold, d)
			return inRange(nt) && nt != p.Threshold
		})
		if !ok {
			return e.next()
		}
		old := e.rules[ri].Preds[pj].Threshold
		op, inv := "tighten", "relax"
		if !tighten {
			op, inv = inv, op
		}
		e.queue = append(e.queue, server.EditRequest{Op: inv, Rule: ri, Pred: pj, Threshold: old})
		return server.EditRequest{Op: op, Rule: ri, Pred: pj, Threshold: nt}
	case 3: // remove a predicate, then add it back (it lands last)
		ri, pj, ok := e.pickPred(2, func(server.PredInfo) bool { return true })
		if !ok {
			return e.next()
		}
		preds := e.rules[ri].Preds
		p := preds[pj]
		moved := append(append(append([]server.PredInfo(nil), preds[:pj]...), preds[pj+1:]...), p)
		e.rules[ri].Preds = moved
		e.queue = append(e.queue, server.EditRequest{Op: "add_predicate", Rule: ri, Predicate: predSrc(p, p.Threshold)})
		return server.EditRequest{Op: "remove_predicate", Rule: ri, Pred: pj}
	default: // add a relaxed copy of a rule, then remove it by name
		r := e.rules[e.rng.Intn(len(e.rules))]
		e.added++
		name := fmt.Sprintf("%s_x%d", e.prefix, e.added)
		parts := make([]string, len(r.Preds))
		for i, p := range r.Preds {
			t := p.Threshold
			if p.Op != "==" {
				if nt := stricter(p.Op, t, -0.05); inRange(nt) {
					t = nt
				}
			}
			parts[i] = predSrc(p, t)
		}
		e.queue = append(e.queue, server.EditRequest{Op: "remove_rule", RuleName: name})
		return server.EditRequest{Op: "add_rule", RuleSrc: "rule " + name + ": " + strings.Join(parts, " and ")}
	}
}
