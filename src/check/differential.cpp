#include "check/differential.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/closure_solver.hpp"
#include "check/exhaustive.hpp"
#include "check/oracle.hpp"
#include "check/wd_matrices.hpp"
#include "core/initializer.hpp"
#include "core/min_period.hpp"
#include "core/objective.hpp"
#include "core/solver.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/cell_library.hpp"
#include "netlist/validate.hpp"
#include "rgraph/apply.hpp"
#include "rgraph/retiming_graph.hpp"
#include "sim/observability.hpp"
#include "sim/sim_config.hpp"
#include "support/strings.hpp"
#include "timing/graph_timing.hpp"

namespace serelin {

namespace {

constexpr double kPeriodEps = 1e-6;

Deadline engine_deadline(const DiffConfig& cfg) {
  return cfg.engine_seconds > 0 ? Deadline::after(cfg.engine_seconds)
                                : Deadline();
}

/// First movable vertex (fault application point). The generator never
/// produces gateless circuits, but stay defensive.
VertexId first_movable(const RetimingGraph& g) {
  return g.gate_vertices().empty() ? 0 : g.gate_vertices().front();
}

/// True when every combinational path under `r` fits in phi − setup.
/// Requires g.valid(r).
bool achieves_period(const RetimingGraph& g, const Retiming& r, double phi,
                     double setup, std::string* why) {
  GraphTiming t(g, TimingParams{phi, setup, 0.0});
  t.compute(r);
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (t.arrival(v) > phi - setup + kPeriodEps) {
      if (why != nullptr)
        *why = "arrival " + std::to_string(t.arrival(v)) + " at vertex " +
               std::to_string(v) + " exceeds budget " +
               std::to_string(phi - setup);
      return false;
    }
  }
  return true;
}

/// Largest per-vertex decrease a solver committed (sizes the exhaustive
/// search box so it provably contains the solver's point).
int max_decrease(const RetimingGraph& g, const Retiming& initial,
                 const Retiming& result) {
  int best = 0;
  for (const VertexId v : g.gate_vertices())
    best = std::max(best, static_cast<int>(initial[v] - result[v]));
  return best;
}

struct Harness {
  const Netlist& nl;
  const DiffConfig& cfg;
  DifferentialReport report;

  explicit Harness(const Netlist& n, const DiffConfig& c) : nl(n), cfg(c) {}

  void diverge(std::string kind, std::string detail) {
    report.divergences.push_back({std::move(kind), std::move(detail)});
  }

  EngineOutcome& outcome(std::string name, EngineStatus status,
                         std::string detail = {}) {
    report.engines.push_back({std::move(name), status, 0, std::move(detail)});
    return report.engines.back();
  }
};

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kObjectiveSkew: return "objective-skew";
    case FaultKind::kRetimingPerturb: return "retiming-perturb";
    case FaultKind::kGainSkew: return "gain-skew";
    case FaultKind::kRminSkew: return "rmin-skew";
    case FaultKind::kPeriodSkew: return "period-skew";
    case FaultKind::kStopDetailDrop: return "stop-detail-drop";
  }
  return "unknown";
}

std::string DifferentialReport::summary() const {
  if (!ran) {
    return "setup failed: " +
           (divergences.empty() ? std::string("(no detail)")
                                : divergences.front().detail);
  }
  if (divergences.empty()) {
    std::size_t active = 0;
    for (const auto& e : engines)
      if (e.status != EngineStatus::kSkipped) ++active;
    return "clean: " + std::to_string(active) + " engines agree";
  }
  std::string s = "DIVERGENT: " + divergences.front().kind + " (" +
                  divergences.front().detail + ")";
  if (divergences.size() > 1)
    s += " and " + std::to_string(divergences.size() - 1) + " more";
  return s;
}

DifferentialReport run_differential(const Netlist& nl, const DiffConfig& cfg) {
  Harness h(nl, cfg);

  // ---- Shared setup: graph, Section-V initialization, gains ------------
  CellLibrary lib;
  InitResult init;
  ObsGains gains;
  std::optional<RetimingGraph> graph;
  try {
    graph.emplace(nl, lib);
  } catch (const std::exception& e) {
    h.diverge("setup-crash", std::string("graph construction: ") + e.what());
    return h.report;
  }
  const RetimingGraph& g = *graph;
  try {
    init = initialize_retiming(g, InitOptions{});
    SimConfig sim;
    sim.patterns = cfg.patterns;
    sim.frames = cfg.frames;
    sim.warmup = cfg.warmup;
    sim.seed = cfg.sim_seed;
    const ObsResult obs = ObservabilityAnalyzer(nl, sim).run();
    gains = compute_gains(g, obs.obs, cfg.patterns, cfg.area_weight);
  } catch (const std::exception& e) {
    h.diverge("setup-crash", std::string("initialization: ") + e.what());
    return h.report;
  }
  h.report.ran = true;

  const bool elw_active = cfg.enforce_elw && init.rmin > 0;
  SolverOptions base;
  base.timing = init.timing;
  base.rmin = init.rmin;
  base.enforce_elw = elw_active;

  // ---- Per-engine inputs, with the planted input fault applied ---------
  auto engine_gains = [&](int engine) {
    ObsGains skewed = gains;
    if (cfg.fault.kind == FaultKind::kGainSkew && cfg.fault.engine == engine) {
      // Every movable vertex looks 8K more attractive: any committed move
      // inflates the reported gain beyond what the true Eq. (5) delta is.
      for (const VertexId v : g.gate_vertices())
        skewed.gain[v] += 8LL * gains.patterns;
    }
    return skewed;
  };
  auto engine_options = [&](int engine) {
    SolverOptions o = base;
    o.deadline = engine_deadline(cfg);
    if (cfg.fault.engine == engine) {
      // Skews are aggressive on purpose: the planted engine must actually
      // exploit the loosened constraint for the oracle to catch it.
      if (cfg.fault.kind == FaultKind::kRminSkew) o.rmin = 0.0;
      if (cfg.fault.kind == FaultKind::kPeriodSkew)
        o.timing.period = base.timing.period * 1.5;
    }
    return o;
  };
  auto plant_result_fault = [&](int engine, SolverResult& res) {
    if (cfg.fault.engine != engine) return;
    switch (cfg.fault.kind) {
      case FaultKind::kObjectiveSkew:
        res.objective_gain += gains.patterns + 1;
        break;
      case FaultKind::kRetimingPerturb:
        res.r[first_movable(g)] -= 64;
        break;
      case FaultKind::kStopDetailDrop:
        res.stop_reason = StopReason::kDeadline;
        res.stop_detail.clear();
        break;
      default:
        break;
    }
  };

  // ---- Run forest and closure, verify each against the oracle ----------
  OracleOptions oo;
  oo.timing = init.timing;
  oo.rmin = init.rmin;
  oo.area_weight = cfg.area_weight;

  struct SolverRun {
    EngineStatus status = EngineStatus::kSkipped;
    SolverResult res;
  };
  std::vector<SolverRun> runs(2);
  const char* kSolverNames[2] = {"forest", "closure"};
  for (int engine = 0; engine < 2; ++engine) {
    SolverRun& run = runs[static_cast<std::size_t>(engine)];
    const ObsGains eg = engine_gains(engine);
    const SolverOptions eo = engine_options(engine);
    try {
      run.res = engine == 0 ? MinObsWinSolver(g, eg, eo).solve(init.r)
                            : ClosureSolver(g, eg, eo).solve(init.r);
    } catch (const CancelledError& e) {
      h.outcome(kSolverNames[engine], EngineStatus::kTimeout, e.what());
      run.status = EngineStatus::kTimeout;
      continue;
    } catch (const std::exception& e) {
      h.outcome(kSolverNames[engine], EngineStatus::kCrashed, e.what());
      h.diverge("engine-crash",
                std::string(kSolverNames[engine]) + " threw: " + e.what());
      run.status = EngineStatus::kCrashed;
      continue;
    }
    plant_result_fault(engine, run.res);

    // A Partial result is a timeout, not a disagreement — but only when it
    // says so. Losing stop_detail would make the two indistinguishable.
    if (run.res.partial() && run.res.stop_detail.empty()) {
      h.diverge("partial-without-detail",
                std::string(kSolverNames[engine]) +
                    " returned a partial result (stop_reason " +
                    stop_reason_name(run.res.stop_reason) +
                    ") with an empty stop_detail");
    }

    // Solvers promise a feasible retiming even when stopped early.
    if (run.res.r.size() != g.vertex_count() || !g.valid(run.res.r)) {
      h.diverge("illegal-retiming", std::string(kSolverNames[engine]) +
                                        " returned an invalid retiming");
      h.outcome(kSolverNames[engine], EngineStatus::kCrashed,
                "invalid retiming");
      run.status = EngineStatus::kCrashed;
      continue;
    }

    // Independent re-derivation of every claimed invariant. The oracle
    // always sees the TRUE timing/rmin/gains — that is exactly how a
    // solver fed skewed inputs (planted or buggy) gets caught.
    oo.check_elw = elw_active && !run.res.exited_early;
    const Verdict v =
        RetimingOracle(g, oo).verify(run.res, init.r, gains);
    if (!v.ok()) {
      h.diverge("oracle-reject",
                std::string(kSolverNames[engine]) + ": " + v.summary());
    }

    run.status =
        run.res.partial() ? EngineStatus::kTimeout : EngineStatus::kOk;
    EngineOutcome& out =
        h.outcome(kSolverNames[engine], run.status, run.res.stop_detail);
    out.objective_gain = run.res.objective_gain;
  }

  // ---- Objective agreement: closure <= forest == exhaustive ------------
  const SolverRun& forest = runs[0];
  const SolverRun& closure = runs[1];
  const bool comparable = forest.status == EngineStatus::kOk &&
                          closure.status == EngineStatus::kOk;
  if (comparable && forest.res.exited_early != closure.res.exited_early) {
    h.diverge("exited-early-mismatch",
              std::string("forest exited_early=") +
                  (forest.res.exited_early ? "true" : "false") +
                  ", closure exited_early=" +
                  (closure.res.exited_early ? "true" : "false"));
  }
  if (comparable && closure.res.objective_gain > forest.res.objective_gain) {
    h.diverge("objective-mismatch",
              "closure gain " + std::to_string(closure.res.objective_gain) +
                  " exceeds forest gain " +
                  std::to_string(forest.res.objective_gain) +
                  " (closure is a lower bound)");
  }
  if (forest.status == EngineStatus::kOk && !forest.res.exited_early &&
      g.gate_vertices().size() <= cfg.exhaustive_max_gates) {
    int bound =
        std::max(cfg.exhaustive_bound, max_decrease(g, init.r, forest.res.r));
    if (comparable)
      bound = std::max(bound, max_decrease(g, init.r, closure.res.r));
    if (bound > 6) {
      h.outcome("exhaustive", EngineStatus::kSkipped,
                "search box bound " + std::to_string(bound) + " too large");
    } else {
      try {
        SolverOptions eo = base;
        eo.deadline = engine_deadline(cfg);
        const ExhaustiveResult ex =
            exhaustive_best(g, gains, eo, init.r, bound);
        // A stopped enumeration holds only the best point it reached, not
        // the optimum: a timeout, excluded from the objective comparison.
        const bool stopped = ex.stop_reason != StopReason::kNone;
        EngineOutcome& out = h.outcome(
            "exhaustive",
            stopped ? EngineStatus::kTimeout : EngineStatus::kOk,
            stopped ? std::string("exhaustive: stopped (") +
                          stop_reason_name(ex.stop_reason) + ") after " +
                          std::to_string(ex.feasible_points) +
                          " feasible points"
                    : std::string());
        out.objective_gain = ex.objective_gain;
        if (!stopped && forest.res.objective_gain != ex.objective_gain) {
          h.diverge("objective-mismatch",
                    "forest gain " + std::to_string(forest.res.objective_gain) +
                        " != exhaustive optimum " +
                        std::to_string(ex.objective_gain) + " (bound " +
                        std::to_string(bound) + ")");
        }
      } catch (const std::exception& e) {
        h.outcome("exhaustive", EngineStatus::kCrashed, e.what());
        h.diverge("engine-crash", std::string("exhaustive threw: ") + e.what());
      }
    }
  } else {
    h.outcome("exhaustive", EngineStatus::kSkipped,
              g.gate_vertices().size() > cfg.exhaustive_max_gates
                  ? "gate count above exhaustive_max_gates"
                  : "forest result not comparable");
  }

  // ---- Min period: exact W/D search vs FEAS ----------------------------
  try {
    const WdMatrices wd(g, engine_deadline(cfg));
    const auto dq =
        wd_min_period(g, wd, base.timing.setup, engine_deadline(cfg));
    MinPeriodRetimer::Options mo;
    mo.setup = base.timing.setup;
    mo.deadline = engine_deadline(cfg);
    const auto feas = MinPeriodRetimer(g, mo).minimize();

    struct PeriodRun {
      const char* name;
      double period;
      const Retiming* r;
      bool partial;
      const std::string* detail;
      StopReason reason;
    };
    const PeriodRun prs[2] = {
        {"wd-dense", dq.period, &dq.r, dq.partial(), &dq.stop_detail,
         dq.stop_reason},
        {"feas", feas.period, &feas.r, feas.partial(), &feas.stop_detail,
         feas.stop_reason},
    };
    for (const PeriodRun& pr : prs) {
      if (pr.partial && pr.detail->empty()) {
        h.diverge("partial-without-detail",
                  std::string(pr.name) +
                      " returned a partial result (stop_reason " +
                      stop_reason_name(pr.reason) +
                      ") with an empty stop_detail");
      }
      h.outcome(pr.name,
                pr.partial ? EngineStatus::kTimeout : EngineStatus::kOk,
                *pr.detail);
      if (pr.r->size() != g.vertex_count() || !g.valid(*pr.r)) {
        h.diverge("illegal-retiming",
                  std::string(pr.name) + " returned an invalid retiming");
        continue;
      }
      std::string why;
      if (!achieves_period(g, *pr.r, pr.period, base.timing.setup, &why)) {
        h.diverge("period-mismatch", std::string(pr.name) +
                                         " retiming misses its claimed "
                                         "period " +
                                         std::to_string(pr.period) + ": " +
                                         why);
      }
    }
    // The dense search is exact and FEAS an upper bound: FEAS claiming a
    // *better* period than the exact optimum is a divergence (the other
    // direction is legitimate approximation).
    if (!dq.partial() && !feas.partial() &&
        feas.period < dq.period - kPeriodEps) {
      h.diverge("period-mismatch",
                "FEAS min period " + std::to_string(feas.period) +
                    " beats the exact dense optimum " +
                    std::to_string(dq.period));
    }
  } catch (const CancelledError& e) {
    h.outcome("wd-dense", EngineStatus::kTimeout, e.what());
  } catch (const std::exception& e) {
    h.outcome("wd-dense", EngineStatus::kCrashed, e.what());
    h.diverge("engine-crash",
              std::string("min-period engines threw: ") + e.what());
  }

  // ---- Materialization: apply → write → reparse must round-trip --------
  if (forest.status != EngineStatus::kCrashed &&
      forest.status != EngineStatus::kSkipped && g.valid(forest.res.r)) {
    try {
      const Netlist retimed =
          apply_retiming(g, forest.res.r, nl.name() + "-rt");
      std::ostringstream os;
      write_bench(os, retimed);
      std::istringstream is(os.str());
      const Netlist back = read_bench(is, retimed.name());
      std::string why;
      if (!structurally_equal(retimed, back, &why)) {
        h.diverge("materialize-mismatch",
                  "bench round-trip of the retimed netlist diverged: " + why);
        h.outcome("materialize", EngineStatus::kCrashed, why);
      } else {
        h.outcome("materialize", EngineStatus::kOk);
      }
    } catch (const std::exception& e) {
      h.outcome("materialize", EngineStatus::kCrashed, e.what());
      h.diverge("engine-crash",
                std::string("materialization threw: ") + e.what());
    }
  } else {
    h.outcome("materialize", EngineStatus::kSkipped,
              "no forest retiming to materialize");
  }

  return h.report;
}

void append_diff_config(const DiffConfig& cfg, SidecarFields& fields) {
  const auto add = [&fields](const char* key, const auto& value) {
    std::ostringstream os;
    os << value;
    fields.emplace_back(key, os.str());
  };
  add("patterns", cfg.patterns);
  add("frames", cfg.frames);
  add("warmup", cfg.warmup);
  add("sim_seed", cfg.sim_seed);
  add("enforce_elw", cfg.enforce_elw ? 1 : 0);
  add("area_weight", cfg.area_weight);
  add("exhaustive_max_gates", cfg.exhaustive_max_gates);
  add("exhaustive_bound", cfg.exhaustive_bound);
  add("engine_seconds", cfg.engine_seconds);
  add("fault_kind", fault_kind_name(cfg.fault.kind));
  add("fault_engine", cfg.fault.engine);
}

std::optional<ReplaySpec> parse_replay_spec(std::string_view sidecar) {
  const std::optional<SidecarFields> fields =
      parse_sidecar(sidecar, "solvers");
  if (!fields) return std::nullopt;
  ReplaySpec spec;
  DiffConfig& cfg = spec.cfg;
  for (const auto& [key, val] : *fields) {
    if (key == "expect") {
      spec.expect_divergent = val == "divergent";
    } else if (key == "patterns") {
      if (const auto v = parse_int(val, 64, 1 << 20))
        cfg.patterns = static_cast<int>(*v);
    } else if (key == "frames") {
      if (const auto v = parse_int(val, 1, 1000))
        cfg.frames = static_cast<int>(*v);
    } else if (key == "warmup") {
      if (const auto v = parse_int(val, 0, 100000))
        cfg.warmup = static_cast<int>(*v);
    } else if (key == "sim_seed") {
      if (const auto v = parse_uint(val)) cfg.sim_seed = *v;
    } else if (key == "enforce_elw") {
      cfg.enforce_elw = val != "0";
    } else if (key == "area_weight") {
      if (const auto v = parse_double(val)) cfg.area_weight = *v;
    } else if (key == "exhaustive_max_gates") {
      if (const auto v = parse_int(val, 0, 64))
        cfg.exhaustive_max_gates = static_cast<std::size_t>(*v);
    } else if (key == "exhaustive_bound") {
      if (const auto v = parse_int(val, 0, 16))
        cfg.exhaustive_bound = static_cast<int>(*v);
    } else if (key == "engine_seconds") {
      if (const auto v = parse_double(val)) cfg.engine_seconds = *v;
    } else if (key == "fault_kind") {
      for (int k = 0; k < kNumFaultKinds; ++k) {
        const auto kind = static_cast<FaultKind>(k);
        if (val == fault_kind_name(kind)) cfg.fault.kind = kind;
      }
    } else if (key == "fault_engine") {
      if (const auto v = parse_int(val, 0, 1))
        cfg.fault.engine = static_cast<int>(*v);
    }
  }
  return spec;
}

}  // namespace serelin
