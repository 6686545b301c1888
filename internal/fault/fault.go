// Package fault is the deterministic fault-injection subsystem of the
// load balancer's robustness layer. A Plan is a pure function from the
// key (cycle, stage, src, dst, attempt) to a fault Kind, derived from a
// seed by a splitmix64-style hash: no state, no clocks, no randomness at
// run time. Because the key never mentions host state, every injected
// failure — and every recovery the exchanges and the remap perform in
// response — is byte-reproducible run to run, per the repo's determinism
// contract.
//
// Every message exchange consults a Plan through an ExchangeModel: the
// remap payload exchange, window by window, and the adaption notification
// rounds. The mesh is shared ground truth, so no payload moves between
// ranks; what a fate costs, and whether the message gets through, is the
// one delivery policy Deliver, so every exchange prices a fault the same
// resends and backoff.
package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind classifies one injected message fault.
type Kind uint8

// The injectable fault kinds. None means the attempt goes through clean.
const (
	None Kind = iota
	// Drop loses the message: the receiver sees nothing and the sender
	// retries after a modeled timeout+backoff.
	Drop
	// Corrupt delivers the frame with a flipped payload word; the
	// receiver's checksum validation discards it and the sender retries.
	Corrupt
	// Duplicate delivers the frame twice; the receiver's sequence
	// tracking discards the extra copy. No retry is needed, but the
	// duplicate is real wire traffic.
	Duplicate
	// Stall delays the message: it is delivered intact, but the sender is
	// charged one backoff unit of modeled time.
	Stall
	// Crash kills a whole modeled rank at a stage boundary. Unlike the
	// four message kinds above, its fate is rank-scoped — keyed on
	// (seed, cycle, stage, rank) via Crashed, not drawn per message —
	// and recovery is a survivor remap, not a message retry.
	Crash
)

// String implements fmt.Stringer with the plan-syntax kind names.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Drop:
		return "drop"
	case Corrupt:
		return "corrupt"
	case Duplicate:
		return "dup"
	case Stall:
		return "stall"
	case Crash:
		return "crash"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// kindByName is the inverse of Kind.String for plan parsing.
var kindByName = map[string]Kind{
	"drop": Drop, "corrupt": Corrupt, "dup": Duplicate, "duplicate": Duplicate,
	"stall": Stall, "crash": Crash,
}

// Stage identifies the pipeline stage a fault key belongs to, so a plan
// can never confuse a remap payload message with an adaption
// notification that happens to share (cycle, src, dst, attempt).
type Stage uint8

// The injectable stages.
const (
	// StageRemap is the data-remapping payload exchange (the element
	// records ExecuteRemap prices, window by window).
	StageRemap Stage = iota
	// StageAdapt is the adaption-phase notification exchange charged by
	// the propagate backends.
	StageAdapt
)

// Plan schedules deterministic faults. The zero value (and any plan with
// Rate 0) injects nothing; a nil *Plan disables the fault machinery
// entirely, which is the byte-identical legacy path.
type Plan struct {
	// Seed selects the fault schedule; two seeds give independent
	// schedules at the same rate.
	Seed int64
	// Rate is the fault probability per (message, attempt), in [0, 1].
	Rate float64
	// Kinds are the enabled fault kinds; empty enables all four.
	Kinds []Kind
}

// allKinds is the default kind set of a plan that names none. Crash is
// deliberately absent: rank deaths are opt-in (kinds=crash), so existing
// plans keep their exact message-fate schedules.
var allKinds = []Kind{Drop, Corrupt, Duplicate, Stall}

// Validate reports whether the plan's fields are usable.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	if !(p.Rate >= 0 && p.Rate <= 1) { // also rejects NaN
		return fmt.Errorf("fault: rate %g outside [0, 1]", p.Rate)
	}
	for _, k := range p.Kinds {
		if k == None || k > Crash {
			return fmt.Errorf("fault: invalid kind %d in plan", k)
		}
	}
	return nil
}

// Enabled reports whether the plan can ever inject a fault.
func (p *Plan) Enabled() bool { return p != nil && p.Rate > 0 }

// splitmix64 is the finalizer of the splitmix64 generator: a cheap,
// well-mixed 64-bit hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashKey hashes a fault key: the packed word, then each coordinate
// overflow that did not fit its packed field. A key whose overflows are
// all zero hashes as its packed word alone, so every schedule drawn with
// coordinates in range is unchanged; a key with any overflow reaches the
// hash with every coordinate in full, so distinct keys always feed the
// hash distinct word sequences.
func hashKey(packed uint64, overflow ...int) uint64 {
	h := splitmix64(packed)
	var spill int
	for _, v := range overflow {
		spill |= v
	}
	if spill != 0 {
		for _, v := range overflow {
			h = splitmix64(h ^ uint64(v))
		}
	}
	return h
}

// Fate returns the fault (or None) scheduled for one physical send
// attempt. The attempt index is the per-(cycle, stage, src, dst) count of
// hook consultations, so retries of a faulted message see fresh draws and
// a bounded retry loop terminates with probability 1 for any Rate < 1.
// Crash entries in Kinds are skipped — rank deaths are drawn by Crashed,
// never per message — so a plan whose Kinds hold only Crash injects no
// message faults at all. The key word packs the cycle's low 4 bits,
// the stage, both ranks' low 16 bits and the attempt's low 20 bits;
// hashKey folds in the rest, so two keys agree only by chance, at any
// cycle, P or attempt count.
func (p *Plan) Fate(stage Stage, cycle, src, dst, attempt int) Kind {
	if p == nil || p.Rate <= 0 {
		return None
	}
	key := uint64(cycle&0xf)<<40 ^ uint64(stage)<<36 ^
		uint64(src&0xffff)<<20 ^ uint64(dst&0xffff)<<4 ^ uint64(attempt&0xfffff)<<44
	h := splitmix64(uint64(p.Seed) ^ hashKey(key, cycle>>4, src>>16, dst>>16, attempt>>20))
	// 53-bit uniform in [0, 1).
	u := float64(h>>11) / (1 << 53)
	if u >= p.Rate {
		return None
	}
	kinds := p.Kinds
	if len(kinds) == 0 {
		kinds = allKinds
	}
	n := 0
	for _, k := range kinds {
		if k != Crash {
			n++
		}
	}
	if n == 0 {
		return None
	}
	i := int(splitmix64(h) % uint64(n))
	for _, k := range kinds {
		if k == Crash {
			continue
		}
		if i == 0 {
			return k
		}
		i--
	}
	return None // unreachable
}

// crashSalt decorrelates the rank-scoped crash draws from the
// message-fate draws of the same seed, so enabling crashes never
// perturbs which messages drop, corrupt, duplicate, or stall.
const crashSalt = 0xc7a54ad5ea7bead5

// CrashEnabled reports whether the plan can ever kill a rank: a positive
// rate and Crash named in Kinds. Crash is never part of the default kind
// set, so kinds-less plans keep ranks alive.
func (p *Plan) CrashEnabled() bool {
	if p == nil || p.Rate <= 0 {
		return false
	}
	for _, k := range p.Kinds {
		if k == Crash {
			return true
		}
	}
	return false
}

// Crashed reports whether the plan fates the given rank to die at the
// (stage, cycle) boundary. Like Fate it is a pure hash — no state — so
// the set of crashed ranks for a cycle is byte-reproducible; unlike Fate
// the key is rank-scoped, with no message or attempt coordinates. The key
// word holds the cycle's low 40 bits and the rank's low 16; hashKey folds
// in the rest.
func (p *Plan) Crashed(stage Stage, cycle, rank int) bool {
	if !p.CrashEnabled() {
		return false
	}
	key := uint64(cycle&0xffffffffff)<<24 ^ uint64(stage)<<20 ^ uint64(rank&0xffff) ^ crashSalt
	h := splitmix64(uint64(p.Seed) ^ hashKey(key, cycle>>40, rank>>16))
	u := float64(h>>11) / (1 << 53)
	return u < p.Rate
}

// String renders the plan in the syntax Parse accepts.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d,rate=%g", p.Seed, p.Rate)
	if len(p.Kinds) > 0 {
		names := make([]string, len(p.Kinds))
		for i, k := range p.Kinds {
			names[i] = k.String()
		}
		fmt.Fprintf(&b, ",kinds=%s", strings.Join(names, "+"))
	}
	return b.String()
}

// Parse builds a Plan from the CLI syntax
//
//	seed=<int>,rate=<float>[,kinds=drop+corrupt+dup+stall]
//
// An empty string returns a nil plan (faults disabled). Unknown keys,
// malformed numbers, out-of-range rates, and unknown kinds are errors.
func Parse(s string) (*Plan, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	p := &Plan{}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("fault: %q is not key=value", part)
		}
		switch k {
		case "seed":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q", v)
			}
			p.Seed = n
		case "rate":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad rate %q", v)
			}
			p.Rate = f
		case "kinds":
			for _, name := range strings.Split(v, "+") {
				kind, ok := kindByName[strings.TrimSpace(name)]
				if !ok {
					return nil, fmt.Errorf("fault: unknown kind %q", name)
				}
				p.Kinds = append(p.Kinds, kind)
			}
		default:
			return nil, fmt.Errorf("fault: unknown key %q", k)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Retry bounds the recovery effort of the exchanges and the remap.
type Retry struct {
	// MsgAttempts is the number of send attempts made per message before
	// the transfer is declared failed (minimum 1: the initial send).
	MsgAttempts int
	// WindowRetries is the number of times a failed remap window, the
	// remap executor's commit unit, is re-exchanged before the
	// transaction rolls back.
	WindowRetries int
}

// DefaultRetry is the policy used when the config leaves Retry zero:
// Budget(2), three attempts per message and two re-executions per failed
// window.
func DefaultRetry() Retry { return Budget(2) }

// Budget derives a policy from one scalar retry budget b ≥ 0: b extra
// attempts per message and b window re-executions. Budget(0) disables
// all recovery — the first fault rolls the transaction back — and the
// attempt count saturates at math.MaxInt, so the largest budget means
// "retry without bound", never a wrapped count.
func Budget(b int) Retry {
	b = max(b, 0)
	return Retry{MsgAttempts: min(b, math.MaxInt-1) + 1, WindowRetries: b}
}

// Normalize clamps a policy to usable values: at least one send attempt,
// no negative window retries. The zero value normalizes to DefaultRetry
// so an unset Config.Retry keeps recovery on when a plan is set.
func (r Retry) Normalize() Retry {
	if r == (Retry{}) {
		return DefaultRetry()
	}
	if r.MsgAttempts < 1 {
		r.MsgAttempts = 1
	}
	if r.WindowRetries < 0 {
		r.WindowRetries = 0
	}
	return r
}

// ExchangeModel replays a plan against one exchange scope: the remap
// payload exchange of one remap, or the adaption notification rounds of
// one cycle. It keeps one attempt counter per (src, dst) pair within its
// (stage, cycle) scope; callers draw in canonical pair order, so the
// counters and the resulting charges are byte-identical run to run.
//
// Resends reports whether each message got through. The remap fails a
// window on an undelivered message. Notifications are control-plane
// traffic the adaption algorithm cannot lose without corrupting the mesh,
// so the propagate backends model an undelivered one as escalated
// (e.g. rerouted) at the failure's extra backoff unit; Exhausted counts
// them.
type ExchangeModel struct {
	plan     *Plan
	stage    Stage
	cycle    int
	attempts int // per-message attempt budget
	counter  map[uint64]int

	// Resent and BackoffUnits accumulate the modeled retry traffic:
	// extra message sends and Σ 2^try backoff units. Exhausted counts
	// messages that ran out of budget.
	Resent       int64
	BackoffUnits int64
	Exhausted    int64
}

// Exchange returns a model for one (stage, cycle) scope at the given
// per-message attempt budget. A nil plan returns nil.
func (p *Plan) Exchange(stage Stage, cycle, msgAttempts int) *ExchangeModel {
	if p == nil {
		return nil
	}
	if msgAttempts < 1 {
		msgAttempts = 1
	}
	return &ExchangeModel{plan: p, stage: stage, cycle: cycle, attempts: msgAttempts,
		counter: make(map[uint64]int)}
}

// Resends simulates the delivery of one message from src to dst under
// Deliver's policy: it returns the extra sends and backoff units it cost
// and whether it was delivered within the attempt budget. A nil model or
// a disabled plan delivers every message clean.
func (x *ExchangeModel) Resends(src, dst int32) (extra, backoff int64, delivered bool) {
	if x == nil || !x.plan.Enabled() {
		return 0, 0, true
	}
	key := uint64(uint32(src))<<32 | uint64(uint32(dst))
	extra, backoff, delivered = Deliver(x.attempts, func() Kind {
		a := x.counter[key]
		x.counter[key] = a + 1
		return x.plan.Fate(x.stage, x.cycle, int(src), int(dst), a)
	})
	if !delivered {
		x.Exhausted++
	}
	x.Resent += extra
	x.BackoffUnits += backoff
	return extra, backoff, delivered
}

// Deliver is the delivery policy of one message, the one place that
// decides what a fault fate costs: it draws attempt fates until one
// delivers or attempts are spent. A clean attempt delivers; a stall
// delivers at one backoff unit; a duplicate delivers two frames, one
// counted as a resend; a drop loses the attempt at the source and a
// corruption puts a garbled frame the receiver's checksum rejects, and
// either lost attempt is retried at one resend and 2^try backoff units
// (try counting from 0, capped at 2^16). When the last attempt is lost
// the message fails at one more backoff unit, the failure notice's
// timeout. Deliver returns the resends, the backoff units and whether the
// message got through.
func Deliver(attempts int, draw func() Kind) (resends, backoff int64, delivered bool) {
	for try := 0; ; try++ {
		switch draw() {
		case None:
			return resends, backoff, true
		case Stall:
			return resends, backoff + 1, true
		case Duplicate:
			return resends + 1, backoff, true
		}
		// Drop or Corrupt: the attempt is lost.
		if try+1 >= attempts {
			return resends, backoff + 1, false
		}
		resends++
		backoff += 1 << min(try, 16)
	}
}
