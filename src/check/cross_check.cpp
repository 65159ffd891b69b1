#include "check/cross_check.hpp"

#include "support/check.hpp"

namespace serelin {

namespace {

std::string vertex_detail(const char* label, VertexId v, double got,
                          double want) {
  return std::string(label) + " diverges at vertex " + std::to_string(v) +
         ": incremental " + std::to_string(got) + " vs recompute " +
         std::to_string(want);
}

}  // namespace

CrossCheckResult cross_check_incremental_timing(const RetimingGraph& g,
                                                const GraphTiming& incremental,
                                                const Retiming& r) {
  SERELIN_REQUIRE(g.valid(r),
                  "cross_check_incremental_timing needs a valid retiming");
  GraphTiming fresh(g, incremental.params());
  fresh.compute(r);
  CrossCheckResult out;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    // Bitwise equality on purpose: the incremental relabel re-runs the
    // exact compute() loop bodies, so even the rounding must agree.
    if (incremental.arrival(v) != fresh.arrival(v)) {
      out.ok = false;
      out.detail =
          vertex_detail("arrival", v, incremental.arrival(v), fresh.arrival(v));
      return out;
    }
    if (incremental.max_after(v) != fresh.max_after(v)) {
      out.ok = false;
      out.detail = vertex_detail("max_after", v, incremental.max_after(v),
                                 fresh.max_after(v));
      return out;
    }
    if (incremental.min_after(v) != fresh.min_after(v)) {
      out.ok = false;
      out.detail = vertex_detail("min_after", v, incremental.min_after(v),
                                 fresh.min_after(v));
      return out;
    }
    if (incremental.lt(v) != fresh.lt(v) || incremental.rt(v) != fresh.rt(v) ||
        incremental.crit_min_edge(v) != fresh.crit_min_edge(v)) {
      out.ok = false;
      out.detail = "critical-path witness diverges at vertex " +
                   std::to_string(v);
      return out;
    }
  }
  return out;
}

}  // namespace serelin
