package replay

// Binary artifact format (.cnr). The layout is deliberately simple and
// versioned:
//
//	magic "CNR\x01" | uvarint version | body | crc32(IEEE) of magic..body
//
// where the body of version 2 (FormatVersion) is a flat sequence of
// varint/uvarint/length-prefixed fields in the order written by Encode,
// whose flag bits are 0 Minimized, 1 Fingerprint.Completed and 2
// Fingerprint.Failed. Decode is strict and total: any truncation,
// trailing garbage, unknown flag bit, length lying beyond the input,
// checksum mismatch or other version yields an error, never a panic or
// an attacker-controlled allocation (declared lengths are checked against
// the bytes actually remaining before allocating). FuzzDecodeRecording
// pins both properties plus the decode∘encode fixed point.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"conair/internal/mir"
	"conair/internal/sched"
)

// magic identifies a ConAir recording artifact.
var magic = [4]byte{'C', 'N', 'R', 0x01}

// Decode error categories. Errors returned by Decode wrap one of these,
// so callers can errors.Is-classify without string matching.
var (
	ErrMagic    = errors.New("replay: not a ConAir recording (bad magic)")
	ErrVersion  = errors.New("replay: unsupported recording version")
	ErrCorrupt  = errors.New("replay: corrupt recording")
	ErrChecksum = errors.New("replay: recording checksum mismatch")
)

// Encode serializes the recording into a self-contained artifact.
func Encode(r *Recording) []byte {
	var b []byte
	b = append(b, magic[:]...)
	b = binary.AppendUvarint(b, FormatVersion)

	putStr := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	putI := func(v int64) { b = binary.AppendVarint(b, v) }

	putStr(r.ModuleName)
	putStr(r.ModuleHash)
	putStr(r.ModuleText)
	putStr(r.SchedName)
	putI(r.Seed)
	putStr(r.Label)

	var flags uint64
	set := func(bit int, on bool) {
		if on {
			flags |= 1 << bit
		}
	}
	set(0, r.Minimized)
	set(1, r.Fingerprint.Completed)
	set(2, r.Fingerprint.Failed)
	b = binary.AppendUvarint(b, flags)

	putI(r.MaxSteps)

	fp := &r.Fingerprint
	putI(fp.ExitCode)
	putI(fp.Steps)
	putI(fp.Checkpoints)
	putI(fp.Rollbacks)
	putI(fp.CompFrees)
	putI(fp.CompUnlocks)
	putI(int64(fp.Episodes))
	putI(fp.EpisodeRetries)
	putI(fp.EpisodeSteps)
	putI(int64(fp.ThreadsSpawned))
	putI(int64(fp.FailKind))
	putI(int64(fp.FailPos.Fn))
	putI(int64(fp.FailPos.Block))
	putI(int64(fp.FailPos.Index))
	putI(int64(fp.FailSite))
	putI(int64(fp.FailThread))
	putI(fp.FailStep)
	putStr(fp.FailMsg)

	b = binary.AppendUvarint(b, uint64(len(r.Segments)))
	for _, s := range r.Segments {
		putI(int64(s.TID))
		putI(s.N)
	}
	b = binary.AppendUvarint(b, uint64(len(r.Intns)))
	for _, v := range r.Intns {
		putI(v)
	}

	return appendCRC(b)
}

// appendCRC appends the artifact checksum over b.
func appendCRC(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// decoder is a bounds-checked cursor over the artifact body.
type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, what, d.off)
	}
}

func (d *decoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad uvarint " + what)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad varint " + what)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) str(what string) string {
	n := d.uvarint(what + " length")
	if d.err != nil {
		return ""
	}
	// The length is attacker-controlled; admit only what is actually
	// present so corrupt input can't drive a huge allocation.
	if n > uint64(len(d.data)-d.off) {
		d.fail(what + " length exceeds input")
		return ""
	}
	s := string(d.data[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *decoder) intRange(v int64, lo, hi int64, what string) int {
	if d.err == nil && (v < lo || v > hi) {
		d.fail(what + " out of range")
	}
	return int(v)
}

// Decode parses an artifact produced by Encode. It never panics on
// malformed input: every structural defect maps to an error wrapping
// ErrMagic, ErrVersion, ErrCorrupt or ErrChecksum.
func Decode(data []byte) (*Recording, error) {
	if len(data) < len(magic)+4 || [4]byte(data[:4]) != magic {
		return nil, ErrMagic
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, ErrChecksum
	}

	d := &decoder{data: body, off: len(magic)}
	if v := d.uvarint("version"); d.err == nil && v != FormatVersion {
		return nil, fmt.Errorf("%w: got %d, support %d", ErrVersion, v, FormatVersion)
	}

	r := &Recording{}
	r.ModuleName = d.str("module name")
	r.ModuleHash = d.str("module hash")
	r.ModuleText = d.str("module text")
	r.SchedName = d.str("sched name")
	r.Seed = d.varint("seed")
	r.Label = d.str("label")

	flags := d.uvarint("flags")
	if d.err == nil && flags >= 1<<3 {
		d.fail("unknown flag bits")
	}
	r.Minimized = flags&(1<<0) != 0
	r.Fingerprint.Completed = flags&(1<<1) != 0
	r.Fingerprint.Failed = flags&(1<<2) != 0

	r.MaxSteps = d.varint("max steps")

	fp := &r.Fingerprint
	fp.ExitCode = d.varint("exit code")
	fp.Steps = d.varint("steps")
	fp.Checkpoints = d.varint("checkpoints")
	fp.Rollbacks = d.varint("rollbacks")
	fp.CompFrees = d.varint("comp frees")
	fp.CompUnlocks = d.varint("comp unlocks")
	fp.Episodes = d.intRange(d.varint("episodes"), 0, 1<<32, "episodes")
	fp.EpisodeRetries = d.varint("episode retries")
	fp.EpisodeSteps = d.varint("episode steps")
	fp.ThreadsSpawned = d.intRange(d.varint("threads spawned"), 0, 1<<32, "threads spawned")
	fp.FailKind = mir.FailKind(d.intRange(d.varint("fail kind"), 0, 255, "fail kind"))
	fp.FailPos.Fn = d.intRange(d.varint("fail pos fn"), -1<<31, 1<<31, "fail pos fn")
	fp.FailPos.Block = d.intRange(d.varint("fail pos block"), -1<<31, 1<<31, "fail pos block")
	fp.FailPos.Index = d.intRange(d.varint("fail pos index"), -1<<31, 1<<31, "fail pos index")
	fp.FailSite = d.intRange(d.varint("fail site"), -1<<31, 1<<31, "fail site")
	fp.FailThread = d.intRange(d.varint("fail thread"), -1<<31, 1<<31, "fail thread")
	fp.FailStep = d.varint("fail step")
	fp.FailMsg = d.str("fail msg")

	nseg := d.uvarint("segment count")
	if d.err == nil {
		// Each segment costs at least two bytes on the wire.
		if nseg > uint64(len(body)-d.off)/2+1 {
			d.fail("segment count exceeds input")
		} else {
			r.Segments = make([]sched.Segment, 0, nseg)
			for i := uint64(0); i < nseg && d.err == nil; i++ {
				tid := d.varint("segment tid")
				n := d.varint("segment length")
				if d.err == nil && (tid < 0 || tid > 1<<31-1 || n <= 0) {
					d.fail("segment out of range")
				}
				r.Segments = append(r.Segments, sched.Segment{TID: int32(tid), N: n})
			}
		}
	}

	nint := d.uvarint("intn count")
	if d.err == nil {
		if nint > uint64(len(body)-d.off)+1 {
			d.fail("intn count exceeds input")
		} else {
			r.Intns = make([]int64, 0, nint)
			for i := uint64(0); i < nint && d.err == nil; i++ {
				r.Intns = append(r.Intns, d.varint("intn draw"))
			}
		}
	}

	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(body)-d.off)
	}
	if len(r.Segments) == 0 {
		r.Segments = nil
	}
	if len(r.Intns) == 0 {
		r.Intns = nil
	}
	return r, nil
}

// WriteFile encodes the recording and writes it atomically-enough for a
// forensics artifact (temp file then rename would be overkill here; the
// write is a single syscall for typical sizes).
func WriteFile(path string, r *Recording) error {
	return os.WriteFile(path, Encode(r), 0o644)
}

// WriteFailure writes rec, the recording of a failing run, into dir
// (created if missing) under FileName(id, rec), and counts it in
// replay_recordings_written_total. It is the one writer of such
// artifacts: conair-bench -record and the telemetry server's flight flush
// both go through it.
func WriteFailure(dir string, id int64, rec *Recording) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, FileName(id, rec))
	if err := WriteFile(path, rec); err != nil {
		return "", err
	}
	if reg := metricsRegistry.Load(); reg != nil {
		reg.Counter("replay_recordings_written_total").Inc()
	}
	return path, nil
}

// FileName names the artifact of the id-th failing run: its number, its
// label (the module name when unlabelled) reduced to file-name-safe
// characters, its seed and its failure kind, as in
// "000004-LGResults-sanitize-seed0-hang.cnr".
func FileName(id int64, rec *Recording) string {
	label := rec.Label
	if label == "" {
		label = rec.ModuleName
	}
	if label == "" {
		label = "run"
	}
	label = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, label)
	return fmt.Sprintf("%06d-%s-seed%d-%s.cnr", id, label, rec.Seed, rec.Fingerprint.FailKind)
}

// ReadFile loads and decodes a recording artifact.
func ReadFile(path string) (*Recording, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rec, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}
