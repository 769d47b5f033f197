// Summary tables for instrumented runs — the companions of the
// `cadapt trace` JSONL stream (docs/OBSERVABILITY.md).
#pragma once

#include <iosfwd>

namespace cadapt::obs {
class ExecRecorder;
class McRecorder;
class PagingRecorder;
}  // namespace cadapt::obs

namespace cadapt::core {

/// Per-size-class breakdown of one instrumented execution: for each box
/// size class (floor log2 |□|) the boxes seen, Σ|□|, base-case progress,
/// scan advance and problems retired, followed by a totals row and the
/// semantics-branch counts. Companion to the `cadapt_cli trace` JSONL
/// stream (docs/OBSERVABILITY.md).
void print_trace_summary(std::ostream& os, const obs::ExecRecorder& recorder);

/// Per-trial table of an instrumented Monte-Carlo run: trial index, seed,
/// completion, boxes, ratios and (if timed) wall-clock duration.
void print_trial_summary(std::ostream& os, const obs::McRecorder& recorder);

/// Per-size-class hit/miss table from the concrete CA machine.
void print_paging_summary(std::ostream& os,
                          const obs::PagingRecorder& recorder);

}  // namespace cadapt::core
