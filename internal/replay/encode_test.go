package replay

import (
	"errors"
	"reflect"
	"testing"

	"conair/internal/mir"
	"conair/internal/sched"
)

// sample builds a representative recording exercising every field.
func sample() *Recording {
	return &Recording{
		ModuleName: "mod-x",
		ModuleHash: "0123456789abcdef",
		ModuleText: "module mod-x\nfunc main() {\nentry:\n  ret\n}\n",
		SchedName:  "pct(3,64)",
		Seed:       -42,
		Label:      "unit",
		Minimized:  true,
		MaxSteps:   1 << 40,
		Fingerprint: Fingerprint{
			Completed: false, ExitCode: -1, Steps: 123456,
			Checkpoints: 7, Rollbacks: 3, CompFrees: 1, CompUnlocks: 2,
			Episodes: 2, EpisodeRetries: 9, EpisodeSteps: 400, ThreadsSpawned: 4,
			Failed: true, FailKind: mir.FailDeadlock,
			FailPos:  mir.Pos{Fn: 2, Block: 1, Index: 3},
			FailSite: 5, FailThread: 2, FailStep: 99999, FailMsg: "lock cycle",
		},
		Segments: []sched.Segment{{TID: 0, N: 100}, {TID: 2, N: 1}, {TID: 0, N: 50}},
		Intns:    []int64{0, 3, 17, 2},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, r := range []*Recording{sample(), {ModuleName: "empty"}, {}} {
		got, err := Decode(Encode(r))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("round trip mismatch\n got %+v\nwant %+v", got, r)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	valid := Encode(sample())

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrMagic},
		{"short", valid[:3], ErrMagic},
		{"bad magic", append([]byte("XXXX"), valid[4:]...), ErrMagic},
		{"truncated", valid[:len(valid)/2], ErrChecksum},
		{"trailing garbage", append(append([]byte{}, valid...), 0xEE), ErrChecksum},
	}
	for _, c := range cases {
		if _, err := Decode(c.data); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}

	// Flipping any single byte must be caught by the checksum (or, for the
	// trailing checksum bytes themselves, by the mismatch).
	for i := range valid {
		mut := append([]byte{}, valid...)
		mut[i] ^= 0x40
		if _, err := Decode(mut); err == nil {
			t.Fatalf("flip at byte %d went undetected", i)
		}
	}
}

func TestDecodeRejectsUnknownVersion(t *testing.T) {
	// Rebuild a structurally valid artifact with a bumped version and a
	// recomputed checksum: only ErrVersion distinguishes it.
	valid := Encode(sample())
	body := append([]byte{}, valid[:len(valid)-4]...)
	if body[4] != FormatVersion {
		t.Fatalf("version byte layout changed; update this test")
	}
	body[4] = FormatVersion + 1
	data := appendCRC(body)
	if _, err := Decode(data); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

// emptyArtifact returns the artifact of an empty Recording in the given
// format version: body holds that version's fields, every one zero.
func emptyArtifact(version byte, body int) []byte {
	data := append(append([]byte{}, magic[:]...), version)
	return appendCRC(append(data, make([]byte, body)...))
}

// TestDecodeRejectsVersion1 pins that a version-1 artifact, whose body
// also held a thread limit, fails with ErrVersion: there is one decoder,
// for FormatVersion. Version 1 wrote 29 zero bytes for an empty
// recording (four strings, seed, label, flags, step budget, thread limit,
// 17 fingerprint integers, fail message, two stream counts); version 2
// writes the same without the thread limit, and decodes.
func TestDecodeRejectsVersion1(t *testing.T) {
	if _, err := Decode(emptyArtifact(1, 29)); !errors.Is(err, ErrVersion) {
		t.Fatalf("version 1: err = %v, want ErrVersion", err)
	}
	if _, err := Decode(emptyArtifact(1, 28)); !errors.Is(err, ErrVersion) {
		t.Fatalf("version 1 with a version-2 body: err = %v, want ErrVersion", err)
	}
	got, err := Decode(emptyArtifact(FormatVersion, 28))
	if err != nil || !reflect.DeepEqual(got, &Recording{}) {
		t.Fatalf("version %d: got %+v, %v; want the empty recording", FormatVersion, got, err)
	}
}

// TestDecodeRejectsUnknownFlags: a flag bit past Failed is corruption.
func TestDecodeRejectsUnknownFlags(t *testing.T) {
	data := emptyArtifact(FormatVersion, 28)
	body := data[:len(data)-4]
	body[len(magic)+7] = 1 << 3 // after the version, four strings, seed and label
	if _, err := Decode(appendCRC(body)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestDecodeRejectsLyingLengths(t *testing.T) {
	// A declared string length far beyond the input must error without
	// allocating; build it by hand with a valid checksum.
	body := append([]byte{}, magic[:]...)
	body = append(body, FormatVersion)
	body = append(body, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F) // module-name length ~4GiB
	data := appendCRC(body)
	if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}
