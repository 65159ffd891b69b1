// Fixture: the minimum period through MinPeriodRetimer is fine, and
// comments or strings naming WdMatrices must not trip the rule.
#include "core/min_period.hpp"

const char* engine_note() { return "WdMatrices stays in src/check"; }

void plan(const serelin::RetimingGraph& g) {
  const auto res = serelin::MinPeriodRetimer(g, {}).minimize();
  (void)res;
}
