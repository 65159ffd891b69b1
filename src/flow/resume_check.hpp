// Resumed-equals-fresh cross-check (docs/ROBUSTNESS.md §11).
//
// The crash-safety contract is bitwise: a pipeline killed at any instant
// and resumed from its checkpoint must reach the exact result the
// uninterrupted run reaches — same accepted stage, same retiming vector,
// same objective, same verdict. This comparator states that contract once,
// field by field, so the crash campaign and the tests assert the same
// thing; `detail` pinpoints the first differing field on mismatch.
#pragma once

#include <string>

#include "flow/pipeline.hpp"

namespace serelin {

/// True when `resumed` is bit-identical to `fresh` in every field the
/// contract covers. Wall-clock artifacts (per-attempt seconds, budgets,
/// attempt counts — a resumed run legitimately re-attempts fewer stages)
/// are excluded. On mismatch, `detail` names the first differing field.
bool resume_matches_fresh(const PipelineResult& fresh,
                          const PipelineResult& resumed, std::string* detail);

}  // namespace serelin
