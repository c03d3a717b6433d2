package dist

import (
	"ozz/internal/core"
	"ozz/internal/report"
	"ozz/internal/syzlang"
)

// Epoch returns the campaign's registration epoch (1 on a fresh campaign,
// +1 per restore).
func (m *Manager) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// ReportTitles returns the sorted unique crash titles.
func (m *Manager) ReportTitles() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reports.Titles()
}

// CorpusKeyHashes returns the merged corpus key hashes in first-seen
// order (testing and tooling).
func (m *Manager) CorpusKeyHashes() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.corpusOrder...)
}

// RunShardsLocal executes the manager configuration's whole shard plan
// sequentially in-process — the standalone-equivalent campaign the
// distributed fabric must match title-for-title. It returns the merged
// deduplicated report set and the merged corpus (first-seen order,
// deduplicated by program key).
func RunShardsLocal(cfg ManagerConfig, poolWorkers int) (*report.Set, []*syzlang.Program) {
	cfg.normalize()
	merged := report.NewSet()
	var (
		corpus []*syzlang.Program
		seen   = make(map[string]struct{})
	)
	for _, sh := range Shards(cfg.Seed, cfg.TotalSteps, cfg.ShardSteps) {
		p := core.NewPool(coreConfig(cfg.Campaign, sh.Seed, nil, nil), poolWorkers)
		p.Run(sh.Steps)
		for _, r := range p.Reports.All() {
			merged.Add(r)
		}
		for _, prog := range p.CorpusPrograms() {
			h := progHash(prog)
			if _, dup := seen[h]; dup {
				continue
			}
			seen[h] = struct{}{}
			corpus = append(corpus, prog)
		}
	}
	return merged, corpus
}
