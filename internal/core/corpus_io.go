package core

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"

	"ozz/internal/syzlang"
)

// Corpus persistence (syzkaller's corpus files, so long campaigns can
// resume where they left off): one program per block, blank-line
// separated. The stream variants below never materialize the whole corpus
// as one string — programs are written through a bufio.Writer and parsed
// block-by-block from a bufio.Scanner — so corpus size is bounded by the
// largest single program, not the file. The same encoding is the wire
// format of the distributed fabric's poll payloads and snapshots
// (internal/dist), which is why the encode/decode pair is exported.

// ErrEmptyCorpus reports a corpus stream that contained no program blocks
// at all (e.g. an empty or whitespace-only file). Callers resuming a
// campaign may treat it as "nothing to import"; callers expecting data
// (a poll payload that claimed programs) should treat it as corruption.
var ErrEmptyCorpus = errors.New("core: corpus stream contains no programs")

// CorpusError describes a malformed block or a failed read inside a corpus
// stream. Decoding continues past malformed blocks, so the caller receives
// the partial corpus alongside the first CorpusError — never a panic.
type CorpusError struct {
	// Block is the 1-based index of the offending block in the stream
	// (0 when the failure is a stream read error rather than a block).
	Block int
	// Src is the offending block's text, truncated for display.
	Src string
	// Err is the underlying cause (a parse error, bufio.ErrTooLong, or
	// the reader's error for truncated streams).
	Err error
	// parseErr marks Err as a syzlang parse error, which names the bad
	// line itself, so Error leaves the excerpt out.
	parseErr bool
}

// Error renders the block position, the quoted excerpt of the offending
// text (when there is one and the cause does not already point into it)
// and the cause.
func (e *CorpusError) Error() string {
	where := "core: corpus stream"
	if e.Block > 0 {
		where = fmt.Sprintf("core: corpus block %d", e.Block)
	}
	if e.Src != "" && !e.parseErr {
		return fmt.Sprintf("%s %q: %v", where, e.Src, e.Err)
	}
	return fmt.Sprintf("%s: %v", where, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *CorpusError) Unwrap() error { return e.Err }

// truncateSrc bounds the offending-block excerpt kept on a CorpusError.
func truncateSrc(src string) string {
	const max = 120
	if len(src) > max {
		return src[:max] + "…"
	}
	return src
}

// EncodePrograms streams the programs to w in the corpus encoding
// (blank-line-separated blocks), buffered.
func EncodePrograms(w io.Writer, progs []*syzlang.Program) error {
	bw := bufio.NewWriter(w)
	for i, p := range progs {
		if i > 0 {
			if _, err := bw.WriteString("\n"); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString(p.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodePrograms scans blank-line-separated program blocks from r, parsing
// each against the target and deduplicating by Program.Key (first
// occurrence wins). It never panics on adversarial input: an empty stream
// returns (nil, ErrEmptyCorpus); a corrupted block is skipped and reported
// as a *CorpusError (the first one encountered) alongside the programs
// that did parse; a truncated or over-long stream returns the partial
// corpus plus a *CorpusError wrapping the read failure.
func DecodePrograms(r io.Reader, target *syzlang.Target) ([]*syzlang.Program, error) {
	var (
		progs    []*syzlang.Program
		seen     = make(map[string]struct{})
		block    strings.Builder
		blockIdx int
		firstErr error
	)
	flush := func() {
		src := strings.TrimSpace(block.String())
		block.Reset()
		if src == "" {
			return
		}
		blockIdx++
		p, err := target.Parse(src)
		if err != nil || len(p.Calls) == 0 {
			if firstErr == nil {
				ce := &CorpusError{Block: blockIdx, Src: truncateSrc(src), Err: err, parseErr: err != nil}
				if err == nil {
					ce.Err = errors.New("program has no calls")
				}
				firstErr = ce
			}
			return
		}
		key := p.Key()
		if _, dup := seen[key]; dup {
			return
		}
		seen[key] = struct{}{}
		progs = append(progs, p)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			flush()
			continue
		}
		block.WriteString(line)
		block.WriteString("\n")
	}
	if err := sc.Err(); err != nil {
		// Truncated or over-long stream: the in-flight block is suspect
		// (it may be an incomplete prefix), so drop it rather than parse
		// half a program, and report the read failure.
		return progs, &CorpusError{Src: truncateSrc(block.String()), Err: err}
	}
	flush()
	if blockIdx == 0 {
		return nil, ErrEmptyCorpus
	}
	return progs, firstErr
}

// dedupeAgainst filters progs down to those whose Key is not in known,
// recording kept keys in known so intra-slice duplicates also drop.
func dedupeAgainst(progs []*syzlang.Program, known map[string]struct{}) []*syzlang.Program {
	out := progs[:0]
	for _, p := range progs {
		key := p.Key()
		if _, dup := known[key]; dup {
			continue
		}
		known[key] = struct{}{}
		out = append(out, p)
	}
	return out
}

// programKeys collects the Key of every program in the slices into one set.
func programKeys(slices ...[]*syzlang.Program) map[string]struct{} {
	known := make(map[string]struct{})
	for _, ps := range slices {
		for _, p := range ps {
			known[p.Key()] = struct{}{}
		}
	}
	return known
}

// WriteCorpus streams the campaign's coverage corpus to w.
func (p *Pool) WriteCorpus(w io.Writer) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return EncodePrograms(w, p.corpus)
}

// ReadCorpus parses a previously written corpus from r and enqueues its
// programs ahead of random generation (like seed programs), skipping any
// program whose Key is already queued or in the corpus — so re-reading an
// appended corpus file can't bloat the corpus.
// Call before Run for deterministic replay. It returns the number of newly
// enqueued programs; on malformed input the parseable programs are still
// imported and a typed error (ErrEmptyCorpus or *CorpusError) describes
// the problem.
func (p *Pool) ReadCorpus(r io.Reader) (int, error) {
	progs, err := DecodePrograms(r, p.target)
	p.mu.Lock()
	progs = dedupeAgainst(progs, programKeys(p.seeds, p.corpus))
	p.seeds = append(p.seeds, progs...)
	p.mu.Unlock()
	return len(progs), err
}
