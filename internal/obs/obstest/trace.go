package obstest

import (
	"encoding/json"
	"fmt"
	"io"

	"conair/internal/obs"
)

// KindFromString resolves an event kind's wire name (obs.Kind.String)
// back to its Kind.
func KindFromString(s string) (obs.Kind, bool) {
	for k := obs.Kind(0); k.String() != "unknown"; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// UnknownKindError reports an unrecognized kind name during decoding.
type UnknownKindError struct{ Name string }

func (e *UnknownKindError) Error() string { return "obs: unknown event kind " + e.Name }

// kindName decodes a JSON kind name into an obs.Kind.
type kindName obs.Kind

func (k *kindName) UnmarshalText(b []byte) error {
	v, ok := KindFromString(string(b))
	if !ok {
		return &UnknownKindError{Name: string(b)}
	}
	*k = kindName(v)
	return nil
}

// ReadJSONL parses a JSONL event stream written by obs.WriteJSONL.
func ReadJSONL(r io.Reader) ([]obs.Event, error) {
	dec := json.NewDecoder(r)
	var out []obs.Event
	for {
		// The outer Kind shadows the embedded one, so the kind's name
		// decodes through kindName.
		var e struct {
			obs.Event
			Kind kindName `json:"kind"`
		}
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		e.Event.Kind = obs.Kind(e.Kind)
		out = append(out, e.Event)
	}
}

// ReadChromeTrace parses trace_event JSON written by obs.WriteChromeTrace
// and validates its schema.
func ReadChromeTrace(r io.Reader) (*obs.ChromeTrace, error) {
	var t obs.ChromeTrace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, err
	}
	if err := ValidateChromeTrace(&t); err != nil {
		return nil, err
	}
	return &t, nil
}

// ValidateChromeTrace checks the schema invariants Perfetto and
// chrome://tracing rely on: known phases, required fields per phase,
// non-negative timestamps and durations.
func ValidateChromeTrace(t *obs.ChromeTrace) error {
	for i := range t.TraceEvents {
		e := &t.TraceEvents[i]
		if e.Name == "" {
			return fmt.Errorf("obs: trace event %d: empty name", i)
		}
		switch e.Ph {
		case "M":
			if e.Args == nil {
				return fmt.Errorf("obs: metadata event %d (%s): missing args", i, e.Name)
			}
		case "X":
			if e.TS < 0 || e.Dur < 0 {
				return fmt.Errorf("obs: slice event %d (%s): negative ts/dur", i, e.Name)
			}
		case "i":
			if e.TS < 0 {
				return fmt.Errorf("obs: instant event %d (%s): negative ts", i, e.Name)
			}
			if e.Scope != "t" && e.Scope != "g" && e.Scope != "p" && e.Scope != "" {
				return fmt.Errorf("obs: instant event %d (%s): bad scope %q", i, e.Name, e.Scope)
			}
		default:
			return fmt.Errorf("obs: event %d (%s): unsupported phase %q", i, e.Name, e.Ph)
		}
	}
	return nil
}

// CountName returns how many of t's events carry the given name — the
// hook the round-trip tests use to reconcile exported traces against
// interpreter statistics.
func CountName(t *obs.ChromeTrace, name string) int {
	n := 0
	for i := range t.TraceEvents {
		if t.TraceEvents[i].Name == name {
			n++
		}
	}
	return n
}
