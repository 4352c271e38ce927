// Corpus replay oracle: re-executes every corpus entry and cross-checks it.
//
// For each entry the replayer rebuilds the plan from the recipe, runs the
// baseline/treatment pair, and verifies
//   (a) digest stability — both flight-recorder digests match the recorded
//       ones byte-for-byte (the corpus is a determinism regression net), and
//   (b) attribution agreement — the offline diagnoser's blamed resource
//       class and the estimator's recorded verdict, recomputed from the
//       fresh baseline trace, match the entry's fields, and the corpus-wide
//       agreement rate clears the required floor (disagreeing entries must
//       carry an annotation note; the parser already enforces that).
//
// This is what the corpus_replay ctest target runs, via atropos_mine.

#ifndef SRC_MINING_REPLAY_H_
#define SRC_MINING_REPLAY_H_

#include <string>
#include <vector>

#include "src/mining/corpus.h"

namespace atropos {

struct ReplayOptions {
  // Minimum fraction of entries whose recorded agreement field is true.
  double require_agreement = 0.95;
  // Replay at most this many entries (0 = all). Used by the sanitizer CI
  // stage, where each simulation is ~10x slower.
  int limit = 0;
};

struct ReplayFailure {
  std::string name;
  std::string what;
};

struct ReplayReport {
  int replayed = 0;
  int agreements = 0;     // entries with agreement yes
  int disagreements = 0;  // entries with agreement no (annotated)
  double agreement_rate = 1.0;
  std::vector<ReplayFailure> failures;

  bool ok() const { return failures.empty(); }
};

// Replays entries (in order) against the oracles above. Failures accumulate
// rather than aborting, so one drifted entry reports all its mismatches and
// later entries still run.
ReplayReport ReplayCorpus(const std::vector<CorpusEntry>& entries, const ReplayOptions& options);

}  // namespace atropos

#endif  // SRC_MINING_REPLAY_H_
