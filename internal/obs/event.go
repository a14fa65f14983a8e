// Package obs is the runtime observability layer: structured trace events
// recorded by the interpreter into a per-run ring buffer, exporters to
// JSONL and Chrome trace_event JSON (loadable in chrome://tracing or
// Perfetto), and a process-wide metrics registry (counters, gauges,
// histograms) fed by the interpreter and the parallel run engine.
//
// The package is a leaf: it depends on nothing inside the repository, so
// every layer (interp, runner, experiments, the CLIs) can use it without
// import cycles. Tracing is strictly passive — recording an event never
// mutates interpreter state — so a traced run is bit-identical to an
// untraced one, a property pinned by the golden-fingerprint guard test in
// internal/experiments.
package obs

// Kind enumerates the typed trace events the interpreter emits.
type Kind uint8

const (
	// KindSchedPick is one scheduling decision: thread TID was chosen to
	// execute the instruction at Step. Emitted once per interpreter step,
	// it dominates trace volume and becomes the per-thread execution
	// slices of the Chrome export.
	KindSchedPick Kind = iota
	// KindThreadSpawn marks creation of thread TID (including main).
	KindThreadSpawn
	// KindThreadExit marks thread TID returning from its root frame;
	// Arg is its result value.
	KindThreadExit
	// KindThreadBlock marks TID leaving the runnable set; Arg is one of
	// the Block* reason codes.
	KindThreadBlock
	// KindLockAcquire marks a successful lock or timed-lock acquisition;
	// Arg is the lock address.
	KindLockAcquire
	// KindLockTimeout marks a timed-lock acquisition reporting timeout;
	// Arg is the lock address.
	KindLockTimeout
	// KindCheckpoint is one reexecution-point execution (register-image
	// save); Site is the checkpoint id.
	KindCheckpoint
	// KindRollback is one recovery longjmp; Site is the failure site,
	// Arg the retry count so far in the episode.
	KindRollback
	// KindEpisodeBegin opens a recovery episode for Site on TID (the
	// first rollback at that site).
	KindEpisodeBegin
	// KindEpisodeEnd closes a recovery episode: the site finally passed.
	// Arg is the episode's total retry count.
	KindEpisodeEnd
	// KindFailure is a detected failure (assert, wrong output, segfault,
	// deadlock, hang); Text carries the message.
	KindFailure
	// KindOutput is one output-instruction execution; Text is the label,
	// Arg the value.
	KindOutput

	numKinds = int(KindOutput) + 1
)

// Block reason codes carried in the Arg of a KindThreadBlock event.
const (
	BlockSleep int64 = iota
	BlockLock
	BlockJoin
	// BlockCond: parked on a condition variable (wait).
	BlockCond
	// BlockChanSend / BlockChanRecv: parked on a full (resp. empty)
	// bounded channel.
	BlockChanSend
	BlockChanRecv
)

var kindNames = [numKinds]string{
	"sched-pick", "thread-spawn", "thread-exit", "thread-block",
	"lock-acquire", "lock-timeout", "checkpoint", "rollback",
	"episode-begin", "episode-end", "failure", "output",
}

// String returns the stable wire name of the kind (used in JSONL and as
// Chrome event names).
func (k Kind) String() string {
	if int(k) < numKinds {
		return kindNames[k]
	}
	return "unknown"
}

// MarshalText renders the kind name, so JSONL events are self-describing.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Event is one trace record. The struct is fixed-size apart from Text
// (only failure and output events carry one), so ring-buffer recording
// never allocates.
type Event struct {
	// Step is the interpreter's virtual time (executed-instruction count)
	// at which the event occurred.
	Step int64 `json:"step"`
	// Kind is the event type.
	Kind Kind `json:"kind"`
	// TID is the thread the event belongs to.
	TID int32 `json:"tid"`
	// Site is the failure-site or checkpoint id, when applicable.
	Site int32 `json:"site,omitempty"`
	// Arg is the kind-specific payload (lock address, retry count, block
	// reason, output or exit value).
	Arg int64 `json:"arg,omitempty"`
	// Text is the failure message or output label.
	Text string `json:"text,omitempty"`
}
