package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"

	"kwsdbg/internal/core"
	"kwsdbg/internal/dblife"
	"kwsdbg/internal/invidx"
	"kwsdbg/internal/lattice"
)

// spool keeps /debug response bodies out of the heap while the timed loop
// runs: each distinct body is appended to a file and read back for checking
// after the loop. Bodies are deduplicated by a hash of everything before the
// "stats" member, which carries per-run counters and timings; the part before
// it holds the answers and explanations the check compares.
type spool struct {
	f    *os.File
	w    *bufio.Writer
	seed maphash.Seed
	ids  map[uint64]int32
	n    int32
}

// newSpool creates a spool file in dir.
func newSpool(dir string) (*spool, error) {
	f, err := os.CreateTemp(dir, "responses-*.bin")
	if err != nil {
		return nil, fmt.Errorf("create response spool: %w", err)
	}
	return &spool{f: f, w: bufio.NewWriterSize(f, 1<<20), seed: maphash.MakeSeed(), ids: make(map[uint64]int32)}, nil
}

var statsMember = []byte(`"stats"`)

// add returns the spool index of body, writing it if no equal body was seen.
func (s *spool) add(body []byte) (int32, error) {
	section := body
	if i := bytes.Index(body, statsMember); i > 0 {
		section = body[:i]
	}
	h := maphash.Bytes(s.seed, section)
	if id, ok := s.ids[h]; ok {
		return id, nil
	}
	var n [binary.MaxVarintLen64]byte
	if _, err := s.w.Write(n[:binary.PutUvarint(n[:], uint64(len(body)))]); err != nil {
		return 0, fmt.Errorf("spool response: %w", err)
	}
	if _, err := s.w.Write(body); err != nil {
		return 0, fmt.Errorf("spool response: %w", err)
	}
	id := s.n
	s.ids[h] = id
	s.n++
	return id, nil
}

// digests reads the spooled bodies back and returns each one's canonical
// outcome (see canonicalResponse), in spool order, then removes the file.
func (s *spool) digests() ([]string, error) {
	defer os.Remove(s.f.Name())
	defer s.f.Close()
	if err := s.w.Flush(); err != nil {
		return nil, fmt.Errorf("flush response spool: %w", err)
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("rewind response spool: %w", err)
	}
	r := bufio.NewReaderSize(s.f, 1<<20)
	out := make([]string, 0, s.n)
	var buf []byte
	for i := int32(0); i < s.n; i++ {
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("read response spool: %w", err)
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("read response spool: %w", err)
		}
		out = append(out, canonicalResponse(buf))
	}
	return out, nil
}

// reportBody is the part of the /debug JSON the check compares.
type reportBody struct {
	NonKeywords []string    `json:"non_keywords"`
	Answers     []queryJSON `json:"answers"`
	NonAnswers  []struct {
		Query queryJSON   `json:"query"`
		MPANs []queryJSON `json:"mpans"`
	} `json:"non_answers"`
	Incomplete bool `json:"incomplete"`
}

type queryJSON struct {
	Tree string `json:"tree"`
}

// canonicalResponse reduces a /debug body to its outcome: the answers, and
// each dead candidate network with its set of maximal alive sub-queries.
// Order does not matter; an unparsable body yields a value no reference has.
func canonicalResponse(body []byte) string {
	var rb reportBody
	if err := json.Unmarshal(body, &rb); err != nil {
		return "unparsable: " + err.Error()
	}
	answers := make([]string, len(rb.Answers))
	for i, a := range rb.Answers {
		answers[i] = a.Tree
	}
	dead := make(map[string][]string, len(rb.NonAnswers))
	for _, na := range rb.NonAnswers {
		mpans := make([]string, len(na.MPANs))
		for i, m := range na.MPANs {
			mpans[i] = m.Tree
		}
		dead[na.Query.Tree] = mpans
	}
	return canonical(rb.NonKeywords, answers, dead, rb.Incomplete)
}

// canonicalOutput is canonicalResponse for a core.Output.
func canonicalOutput(out *core.Output) string {
	answers := make([]string, len(out.Answers))
	for i, a := range out.Answers {
		answers[i] = a.Tree
	}
	dead := make(map[string][]string, len(out.NonAnswers))
	for _, na := range out.NonAnswers {
		mpans := make([]string, len(na.MPANs))
		for i, m := range na.MPANs {
			mpans[i] = m.Tree
		}
		dead[na.Query.Tree] = mpans
	}
	return canonical(out.NonKeywords, answers, dead, out.Incomplete)
}

func canonical(nonKeywords, answers []string, dead map[string][]string, incomplete bool) string {
	var sb strings.Builder
	if incomplete {
		sb.WriteString("INCOMPLETE\n")
	}
	nk := append([]string(nil), nonKeywords...)
	sort.Strings(nk)
	fmt.Fprintf(&sb, "K %s\n", strings.Join(nk, " "))
	as := append([]string(nil), answers...)
	sort.Strings(as)
	for _, a := range as {
		fmt.Fprintf(&sb, "A %s\n", a)
	}
	mtns := make([]string, 0, len(dead))
	for m := range dead {
		mtns = append(mtns, m)
	}
	sort.Strings(mtns)
	for _, m := range mtns {
		mp := append([]string(nil), dead[m]...)
		sort.Strings(mp)
		fmt.Fprintf(&sb, "N %s [%s]\n", m, strings.Join(mp, "; "))
	}
	return sb.String()
}

// sample is one operation's outcome in a measured pass.
type sample struct {
	status int
	// body is the spool index of a /debug response; -1 for writes.
	body int32
	// writeOK records whether a write response reported one inserted row.
	writeOK bool
}

// reference computes the expected outcome of every /debug operation of a
// sequence on a separately generated engine: Return Everything with the
// probe cache bypassed. Writes are replayed in order, so each read is
// checked against the data it saw; an outcome is recomputed after a write
// whose row contains one of the query's keywords.
func reference(level int, ops []op, workers int) ([]string, error) {
	eng, err := dblife.Generate(datasetConfig)
	if err != nil {
		return nil, fmt.Errorf("reference dataset: %w", err)
	}
	sys, err := core.Build(eng, lattice.Options{MaxJoins: level - 1, KeywordSlots: keywordSlots})
	if err != nil {
		return nil, fmt.Errorf("reference lattice: %w", err)
	}
	want := make([]string, len(ops))
	memo := map[string]string{}
	var pending []int // reads since the last write
	flush := func() error {
		// Reads between two writes see the same data, so they run in
		// parallel; identical queries are computed once.
		var todo []int
		queued := map[string]bool{}
		for _, i := range pending {
			key := strings.Join(ops[i].keywords, " ")
			if _, ok := memo[key]; !ok && !queued[key] {
				queued[key] = true
				todo = append(todo, i)
			}
		}
		outs := make([]string, len(todo))
		errs := make([]error, len(todo))
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range next {
					out, err := sys.Debug(ops[todo[j]].keywords, core.Options{Strategy: core.RE, BypassCache: true})
					if err != nil {
						errs[j] = fmt.Errorf("reference %s: %w", ops[todo[j]], err)
						continue
					}
					outs[j] = canonicalOutput(out)
				}
			}()
		}
		for j := range todo {
			next <- j
		}
		close(next)
		wg.Wait()
		for j, i := range todo {
			if errs[j] != nil {
				return errs[j]
			}
			memo[strings.Join(ops[i].keywords, " ")] = outs[j]
		}
		for _, i := range pending {
			want[i] = memo[strings.Join(ops[i].keywords, " ")]
		}
		pending = pending[:0]
		return nil
	}
	for i, o := range ops {
		if o.kind == opDebug {
			pending = append(pending, i)
			continue
		}
		if err := flush(); err != nil {
			return nil, err
		}
		if _, err := eng.Exec(o.sql); err != nil {
			return nil, fmt.Errorf("reference %s: %w", o, err)
		}
		// A written row has a fresh id, so it joins no other row; it can
		// change a query's outcome only by containing one of its keywords.
		for key := range memo {
			if sharesToken(key, o.tokens) {
				delete(memo, key)
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return want, nil
}

// countFailures compares a pass's samples with the reference: a non-2xx
// status, a write that did not insert one row, or a /debug outcome that
// differs from the reference is a failure.
func countFailures(ops []op, samples []sample, got, want []string) int {
	failed := 0
	for i, s := range samples {
		switch {
		case s.status < http.StatusOK || s.status >= http.StatusMultipleChoices:
			failed++
		case ops[i].kind == opWrite:
			if !s.writeOK {
				failed++
			}
		case got[s.body] != want[i]:
			failed++
		}
	}
	return failed
}

// sharesToken reports whether any token of the keyword query appears in
// tokens.
func sharesToken(query string, tokens []string) bool {
	for _, tok := range invidx.Tokenize(query) {
		for _, t := range tokens {
			if tok == t {
				return true
			}
		}
	}
	return false
}
