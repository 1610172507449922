package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"time"

	"radiocast/internal/stats"
)

// CellRecord is the serialized form of one cell result: flat fields so
// artifacts are trivially queryable (jq '.experiments[].cells[]').
type CellRecord struct {
	Experiment   string  `json:"experiment"`
	Config       string  `json:"config"`
	Seed         uint64  `json:"seed"`
	Rounds       int64   `json:"rounds"`
	Completed    bool    `json:"completed"`
	Value        float64 `json:"value,omitempty"`
	Dropped      int64   `json:"dropped,omitempty"`
	Jammed       int64   `json:"jammed,omitempty"`
	BusyRounds   int64   `json:"busy_rounds,omitempty"`
	SilentRounds int64   `json:"silent_rounds,omitempty"`
	MaxFrontier  int64   `json:"max_frontier,omitempty"`
	Epochs       int     `json:"epochs,omitempty"`
	Covered      int     `json:"covered,omitempty"`
	MemBytes     int64   `json:"mem_bytes,omitempty"`
	PeakRSS      int64   `json:"peak_rss_bytes,omitempty"`
	Error        string  `json:"error,omitempty"`
	WallMicros   int64   `json:"wall_us"`
}

// ExperimentRecord is one experiment's slice of a bench artifact: the
// rendered table plus every per-cell measurement.
type ExperimentRecord struct {
	ID         string       `json:"id"`
	Title      string       `json:"title"`
	Header     []string     `json:"header,omitempty"`
	Rows       [][]string   `json:"rows,omitempty"`
	Cells      []CellRecord `json:"cells"`
	WallMicros int64        `json:"wall_us"`
}

// Artifact is the machine-readable output of a bench sweep
// (radiobench -json).
type Artifact struct {
	Module      string             `json:"module"`
	Seeds       int                `json:"seeds"`
	Quick       bool               `json:"quick"`
	Parallelism int                `json:"parallelism"`
	Experiments []ExperimentRecord `json:"experiments"`
	WallMicros  int64              `json:"wall_us"`
}

// NewArtifact starts an artifact describing one sweep.
func NewArtifact(seeds int, quick bool, parallelism int) *Artifact {
	return &Artifact{Module: "radiocast", Seeds: seeds, Quick: quick, Parallelism: parallelism}
}

// Add appends one executed experiment: its plan, assembled table, raw
// results, and total wall time.
func (a *Artifact) Add(p *Plan, tb *stats.Table, results []Result, wall time.Duration) {
	rec := ExperimentRecord{
		ID:         p.ID,
		Title:      p.Title,
		WallMicros: wall.Microseconds(),
		Cells:      make([]CellRecord, len(results)),
	}
	if tb != nil {
		rec.Header = tb.Header
		rec.Rows = tb.Rows
	}
	for i, r := range results {
		rec.Cells[i] = CellRecord{
			Experiment:   r.Key.Experiment,
			Config:       r.Key.Config,
			Seed:         r.Key.Seed,
			Rounds:       r.Rounds,
			Completed:    r.Completed,
			Value:        r.Value,
			Dropped:      r.Dropped,
			Jammed:       r.Jammed,
			BusyRounds:   r.BusyRounds,
			SilentRounds: r.SilentRounds,
			MaxFrontier:  r.MaxFrontier,
			Epochs:       r.Epochs,
			Covered:      r.Covered,
			MemBytes:     r.MemBytes,
			PeakRSS:      r.PeakRSS,
			Error:        r.Err,
			WallMicros:   r.Wall.Microseconds(),
		}
	}
	a.Experiments = append(a.Experiments, rec)
	a.WallMicros += wall.Microseconds()
}

// JSON renders the artifact with stable field order and indentation.
func (a *Artifact) JSON() ([]byte, error) {
	return json.MarshalIndent(a, "", "  ")
}

// Canonical returns a deep copy with every wall-clock and memory
// measurement zeroed — the byte-comparable form used by determinism
// tests (wall times and the mem_bytes / peak_rss_bytes capacity
// metrics are the only nondeterministic artifact content).
func (a *Artifact) Canonical() *Artifact {
	c := *a
	c.WallMicros = 0
	c.Experiments = make([]ExperimentRecord, len(a.Experiments))
	for i, e := range a.Experiments {
		ce := e
		ce.WallMicros = 0
		ce.Cells = make([]CellRecord, len(e.Cells))
		for j, cell := range e.Cells {
			cell.WallMicros = 0
			cell.MemBytes = 0
			cell.PeakRSS = 0
			ce.Cells[j] = cell
		}
		c.Experiments[i] = ce
	}
	return &c
}

// CellDigests returns, under "<ID>/cells", the SHA-256 of each
// experiment's canonical record, rendered as a one-experiment artifact
// of parallelism 1. That is the form the golden digests pin, so a
// radiobench -json artifact and a test's own run digest alike.
func (a *Artifact) CellDigests() (map[string]string, error) {
	out := make(map[string]string, len(a.Experiments))
	for _, e := range a.Experiments {
		one := *a
		one.Parallelism = 1
		one.Experiments = []ExperimentRecord{e}
		blob, err := one.Canonical().JSON()
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(blob)
		out[e.ID+"/cells"] = hex.EncodeToString(sum[:])
	}
	return out, nil
}
