// Paper claims about skew on a fixed network (E1–E3, E7, E13–E15), each a
// ClaimBody factory registered at the bottom.
#include <array>
#include <cmath>

#include "estimate/estimate_source.h"
#include "exp_common.h"
#include "graph/paths.h"

namespace gcs::bench {
namespace {

// E1 — Theorem 5.6: global skew.
//   (I)  The global skew grows at rate at most 2ρ.
//   (II) Above D(t) + ι it shrinks at rate at least µ(1−ρ) − 2ρ.
//   Steady state: G(t) = O(D) — proportional to the network extent.
//
// Workload: line topology, maximally divergent constant drift. An initial
// linear clock scatter of 2·D̂ across the line puts the system above the
// steady regime, from which the decay rate and the O(D) floor are measured.
ClaimBody global_skew(const ParamMap& args) {
  const auto sizes = int_list(args, "sizes", "8,16,32,64", 2);  // the steady-G fit
  const double settle = args.get_double("settle", 900.0);
  return [=](Claim& claim) {
    Sweep sweep(fast_line_spec(8));
    sweep.axis("n", sizes);
    const auto results = claim.run(sweep, [settle](Scenario& s, RunResult& r) {
      s.start();
      const double rho = s.spec().aopt.rho;
      const double mu = s.spec().aopt.mu;
      const double d_bound = estimate_dynamic_diameter(s.engine());

      // Phase 1 (growth): from the synchronized start, G may only grow at 2rho.
      double worst_growth = 0.0;
      double prev_g = 0.0;
      Time prev_t = 0.0;
      for (int step = 1; step <= 20; ++step) {
        s.run_until(step * 5.0);
        const double g = s.engine().true_global_skew();
        worst_growth = std::max(worst_growth, (g - prev_g) / (s.sim().now() - prev_t));
        prev_g = g;
        prev_t = s.sim().now();
      }

      // Phase 2 (decay): scatter clocks linearly up to 2*D^ end-to-end.
      scatter_clocks_linearly(s, 2.0 * d_bound);
      const double g0 = s.engine().true_global_skew();
      const Time t0 = s.sim().now();
      const Duration window =
          0.25 * (g0 - d_bound) / (mu * (1.0 - rho) - 2.0 * rho);
      s.run_until(t0 + window);
      const double g1 = s.engine().true_global_skew();

      // Phase 3 (steady): settle and measure the O(D) floor.
      s.run_until(t0 + window + settle);
      RunningStats steady;
      for (int step = 0; step < 40; ++step) {
        s.run_for(5.0);
        steady.add(s.engine().true_global_skew());
      }

      r.values["d_bound"] = d_bound;
      r.values["steady"] = steady.mean();
      r.values["growth"] = worst_growth;
      r.values["decay"] = (g0 - g1) / window;
    });

    Table table("Theorem 5.6 — global skew vs. network extent (line, worst-case drift)");
    table.headers({"n", "D^ bound", "G steady", "G/D^", "growth<=2rho", "decay rate",
                   "guarantee", "decay ok"});
    const AlgoParams& aopt = sweep.base().aopt;
    const double guarantee = aopt.mu * (1.0 - aopt.rho) - 2.0 * aopt.rho;
    std::vector<double> xs;
    std::vector<double> ys;
    for (const auto& r : results) {
      const double d_bound = r.values.at("d_bound");
      const double steady = r.values.at("steady");
      const bool growth_ok = r.values.at("growth") <= 2.0 * aopt.rho + 1e-6;
      const bool decay_ok = r.values.at("decay") >= 0.9 * guarantee;
      table.row()
          .cell(r.n)
          .cell(d_bound)
          .cell(steady)
          .cell(steady / d_bound)
          .cell(growth_ok)
          .cell(r.values.at("decay"))
          .cell(guarantee)
          .cell(decay_ok);
      claim.verdict(growth_ok, "n=" + std::to_string(r.n) + ": growth <= 2*rho");
      claim.verdict(decay_ok, "n=" + std::to_string(r.n) + ": decay >= 0.9 * guarantee");
      xs.push_back(r.n);
      ys.push_back(steady);
    }
    table.print();

    const auto fit = fit_linear(xs, ys);
    std::cout << "steady G(n) linear fit: G = " << format_double(fit.intercept)
              << " + " << format_double(fit.slope) << " * n   (r2 = "
              << format_double(fit.r2, 3) << ")\n"
              << "paper: G = Theta(D) -> expect r2 close to 1 with positive slope\n";
  };
}

// E2 — Theorem 5.22 / Corollary 5.26: the stable gradient skew.
//   After stabilization, any pair at kappa-distance d satisfies
//   |L_u − L_v| <= (s(d)+1)·d with s(d) = max(1, 2+ceil(log_sigma(Ghat/d))):
//   the O(d·log(D/d)) curve. The bound is a worst-case envelope; the
//   experiment verifies (a) no violation at any distance scale and (b) the
//   measured worst skew grows sublinearly in d (per-unit skew decreasing).
//
// Workload: line, two constant drift adversaries (maximal linear spread and
// half-vs-half split — the strongest constant adversaries for long paths).
void run_series(Claim& claim, const std::string& label, ScenarioSpec spec,
                Duration horizon, Duration sample_every) {
  Scenario s(std::move(spec));
  s.start();
  const double ghat = s.spec().aopt.gtilde_static;
  const double sigma = s.spec().aopt.sigma();

  // Warm up past the legality transient, then track the worst skew per
  // hop-distance over the rest of the run.
  const double warmup = 2.0 * ghat / s.spec().aopt.mu;
  s.run_until(warmup);

  const int n = s.spec().n;
  std::vector<double> worst_by_hops(static_cast<std::size_t>(n), 0.0);
  double kappa_unit = 0.0;
  int violations = 0;
  while (s.sim().now() < warmup + horizon) {
    s.run_for(sample_every);
    for (const auto& p : measure_gradient(s.engine(), 1.0)) {
      auto& slot = worst_by_hops[static_cast<std::size_t>(p.hops)];
      slot = std::max(slot, p.skew);
      kappa_unit = p.kappa_dist / p.hops;
      if (p.skew > gradient_bound(p.kappa_dist, ghat, sigma)) ++violations;
    }
  }

  Table table("E2 [" + label + "]  worst skew vs. distance  (n=" +
              std::to_string(n) + ", Ghat=" + format_double(ghat, 2) +
              ", sigma=" + format_double(sigma, 1) + ")");
  table.headers({"hops", "kappa-dist d", "worst skew", "bound (s(d)+1)d",
                 "skew/d", "bound/d"});
  for (int hops = 1; hops < n; ++hops) {
    if (hops > 2 && hops % 2 != 0 && hops != n - 1) continue;  // thin rows
    const double d = hops * kappa_unit;
    const double skew = worst_by_hops[static_cast<std::size_t>(hops)];
    const double bound = gradient_bound(d, ghat, sigma);
    table.row()
        .cell(hops)
        .cell(d)
        .cell(skew)
        .cell(bound)
        .cell(skew / d)
        .cell(bound / d);
  }
  table.print();
  std::cout << "bound violations observed: " << violations
            << "  (paper: 0 after stabilization)\n";
  claim.verdict(violations == 0, label + ": zero gradient-bound violations");

  // Shape check: per-unit skew at distance 1 vs. at the far end.
  const double near = worst_by_hops[1] / kappa_unit;
  const double far =
      worst_by_hops[static_cast<std::size_t>(n - 1)] / ((n - 1) * kappa_unit);
  std::cout << "per-unit worst skew: d=1 hop -> " << format_double(near, 4)
            << ", d=" << n - 1 << " hops -> " << format_double(far, 4)
            << "  (gradient: long paths are *relatively* better synchronized)\n";
}

ClaimBody gradient_skew(const ParamMap& args) {
  const int n = args.get_int("n", 32);
  const double horizon = args.get_double("horizon", 1500.0);
  require(n >= 2, "param 'n': the per-hop table needs at least 2 nodes");
  return [=](Claim& claim) {
    auto spec = fast_line_spec(n);
    run_series(claim, "linear-spread drift", spec, horizon, 20.0);
    // effectively constant: left slow, right fast
    spec.drift = ComponentSpec("blocks", ParamMap{{"blocks", "2"}, {"period", "1e7"}});
    run_series(claim, "half-vs-half split drift", spec, horizon, 20.0);
  };
}

// E3 — local skew scales like Theta(log_sigma D), not Theta(D).
//   The paper's headline: while the *global* skew necessarily grows linearly
//   with the network extent (Theorem 5.6 is tight), the *local* skew bound
//   kappa*(log_sigma(Ghat/kappa)+O(1)) grows only logarithmically. We sweep
//   the line length and report measured steady global skew (linear in n),
//   measured worst local skew, and the theoretical local bound (log in n).
//
// Only the bound is gated: under constant drift the worst local skew stays a
// few percent of the bound and fits the linear model better than the log
// one, so the scaling claim is reported as not shown (sizes and seeds are
// not tuned to make a fit win).
ClaimBody local_skew_scaling(const ParamMap& args) {
  const auto sizes = int_list(args, "sizes", "8,16,32,64", 2);  // the fits over n
  const auto seeds = int_list(args, "seeds", "1");
  const double measure_time = args.get_double("measure", 600.0);
  return [=](Claim& claim) {
    Sweep sweep(fast_line_spec(8));
    sweep.axis("n", sizes);
    sweep.axis("seed", seeds);
    const auto results = claim.run(sweep, [measure_time](Scenario& s, RunResult& r) {
      s.start();
      const double ghat = s.spec().aopt.gtilde_static;
      const double sigma = s.spec().aopt.sigma();
      const double kappa = metric_kappa(s.engine(), EdgeKey(0, 1));
      const double mu = s.spec().aopt.mu;

      // Drive the system into the steady regime: scatter to the diameter
      // bound, then let the gradient mechanism redistribute.
      const double d_bound = estimate_dynamic_diameter(s.engine());
      scatter_clocks_linearly(s, 2.0 * d_bound);
      s.run_for(2.0 * ghat / mu);

      RunningStats global;
      double worst_local = 0.0;
      const Time measure_start = s.sim().now();
      while (s.sim().now() < measure_start + measure_time) {
        s.run_for(5.0);
        const auto snap = measure_skew(s.engine());
        global.add(snap.global);
        worst_local = std::max(worst_local, snap.worst_local);
      }

      r.final_global = global.mean();
      r.max_local = worst_local;
      r.values["G steady"] = global.mean();
      r.values["local worst"] = worst_local;
      r.values["local bound"] = gradient_bound(kappa, ghat, sigma);
    });

    const bool multi_seed = seeds.size() > 1;
    Table table("E3 — skew scaling with network size (line, worst-case constant drift)");
    table.headers(multi_seed
                      ? std::vector<std::string>{"n", "seed", "G steady (~D)",
                                                 "local worst", "local bound",
                                                 "local/bound", "global/local"}
                      : std::vector<std::string>{"n", "G steady (~D)", "local worst",
                                                 "local bound", "local/bound",
                                                 "global/local"});
    std::vector<double> xs;
    std::vector<double> global_series;
    std::vector<double> local_series;
    for (const auto& r : results) {
      const double global = r.values.at("G steady");
      const double worst_local = r.values.at("local worst");
      const double local_bound = r.values.at("local bound");
      auto& row = table.row().cell(r.n);
      if (multi_seed) row.cell(static_cast<long long>(r.seed));
      row.cell(global)
          .cell(worst_local)
          .cell(local_bound)
          .cell(worst_local / local_bound)
          .cell(global / std::max(worst_local, 1e-9));
      claim.verdict(worst_local <= local_bound, "n=" + std::to_string(r.n) + " seed=" +
                                                    std::to_string(r.seed) + ": local <= bound");
      xs.push_back(r.n);
      global_series.push_back(global);
      local_series.push_back(worst_local);
    }
    table.print();

    const auto gfit = fit_linear(xs, global_series);
    const auto lfit_linear = fit_linear(xs, local_series);
    const auto lfit_log = fit_log(xs, local_series);
    std::cout << "global skew vs n:  linear fit slope " << format_double(gfit.slope)
              << " (r2=" << format_double(gfit.r2, 3) << ") — grows with D\n"
              << "local skew vs n:   linear r2=" << format_double(lfit_linear.r2, 3)
              << ", log r2=" << format_double(lfit_log.r2, 3)
              << " — log scaling: not shown (these runs stay far inside the bound; "
                 "only local <= bound is gated)\n"
              << "key ratio: global/local widens with n -> gradient property pays "
                 "off more the larger the network\n";
  };
}

// E7 — eq. (8): sigma = (1−ρ)µ/(2ρ) is the base of the skew logarithm.
//   Sweeping rho at fixed mu changes sigma; the local-skew *bound*
//   kappa*(log_sigma(Ghat/kappa)+3) shrinks as 1/log(sigma), and measured
//   worst local skew follows the same ordering.
ClaimBody sigma_sweep(const ParamMap& args) {
  const int n = args.get_int("n", 16);
  const double measure_time = args.get_double("measure", 500.0);
  return [=](Claim& claim) {
    Sweep sweep(fast_line_spec(n));
    sweep.axis("rho", std::vector<double>{8e-3, 2e-3, 5e-4, 1.25e-4});
    const auto results = claim.run(sweep, [measure_time](Scenario& s, RunResult& r) {
      s.start();
      const double ghat = s.spec().aopt.gtilde_static;
      const double sigma = s.spec().aopt.sigma();
      const double kappa = metric_kappa(s.engine(), EdgeKey(0, 1));

      // Scatter to the diameter scale, stabilize, then measure.
      const double d_bound = estimate_dynamic_diameter(s.engine());
      scatter_clocks_linearly(s, 2.0 * d_bound);
      s.run_for(2.0 * ghat / s.spec().aopt.mu);

      double worst_local = 0.0;
      const Time start = s.sim().now();
      while (s.sim().now() < start + measure_time) {
        s.run_for(5.0);
        worst_local = std::max(worst_local, measure_skew(s.engine()).worst_local);
      }

      r.values["sigma"] = sigma;
      r.values["levels"] =
          std::max(1.0, 2.0 + std::ceil(std::log(ghat / kappa) / std::log(sigma)));
      r.values["bound"] = gradient_bound(kappa, ghat, sigma);
      r.values["local"] = worst_local;
    });

    Table table("E7 — local skew vs sigma (line n=" + std::to_string(n) +
                ", mu=0.1, rho swept)");
    table.headers({"rho", "sigma", "levels s(kappa)", "local bound",
                   "measured local", "measured/bound"});
    for (const auto& r : results) {
      table.row()
          .cell(r.axes.at("rho"))
          .cell(r.values.at("sigma"), 1)
          .cell(r.values.at("levels"), 0)
          .cell(r.values.at("bound"))
          .cell(r.values.at("local"))
          .cell(r.values.at("local") / r.values.at("bound"));
    }
    table.print();
    std::cout << "paper: the bound column shrinks as sigma grows (fewer levels "
                 "needed to span Ghat); measured local skew respects every bound\n";
  };
}

// E13 — the §3 remark: a designated reference node u0, made artificially
//   faster by (1+ρ)/(1−ρ), always carries the maximum clock. All statements
//   then hold with ρ replaced by ρ̃ ≈ 3ρ and D(t) replaced by the estimate
//   *radius* R_u0(t) from u0. On a line, moving u0 from the end to the
//   middle halves the radius — and the steady global skew follows it.
ClaimBody reference_node(const ParamMap& args) {
  const int n = args.get_int("n", 32);
  const double horizon = args.get_double("horizon", 1200.0);
  return [=](Claim& claim) {
    auto base = fast_line_spec(n);
    base.name = "reference-node";
    // Flat base rates and deterministic minimal delays: the only skew driver
    // left is the staleness of information about u0, which is proportional to
    // the hop distance from u0 — i.e. exactly the radius R_u0 effect.
    base.drift = ComponentSpec("none");
    base.delays = DelayMode::kMin;
    base.engine.beacon_period = 0.5;
    // mu must clear 2*rho~/(1-rho~); rho=1e-3 -> rho~ ~ 3e-3, mu=0.1 is ample.
    Sweep sweep(base);
    sweep.axis("reference", std::vector<int>{0, n / 2});
    const auto results = claim.run(sweep, [horizon](Scenario& s, RunResult& r) {
      const NodeId reference = s.spec().reference_node;
      s.start();
      s.run_until(horizon / 2.0);  // reach the staleness-limited steady state
      bool ref_is_max = true;
      RunningStats global;
      while (s.sim().now() < horizon) {
        s.run_for(5.0);
        global.add(s.engine().true_global_skew());
        double max_logical = -kTimeInf;
        for (NodeId u = 0; u < s.spec().n; ++u) {
          max_logical = std::max(max_logical, s.engine().logical(u));
        }
        ref_is_max = ref_is_max && (s.engine().logical(reference) >= max_logical - 1e-9);
      }
      r.values["steady G"] = global.mean();
      r.values["ref is max"] = ref_is_max ? 1.0 : 0.0;
    });

    Table table("E13 — reference-node placement on a line (n=" + std::to_string(n) +
                ")");
    table.headers({"u0 placement", "radius (hops)", "steady G", "G per radius-hop",
                   "u0 always max"});
    for (const auto& r : results) {
      const int ref = std::stoi(r.axes.at("reference"));
      const std::string label = ref == 0 ? "end (radius = n-1)" : "middle (radius = n/2)";
      const int radius = std::max(ref, n - 1 - ref);
      const bool ref_is_max = r.values.at("ref is max") != 0.0;
      table.row()
          .cell(label)
          .cell(radius)
          .cell(r.values.at("steady G"))
          .cell(r.values.at("steady G") / radius)
          .cell(ref_is_max);
      claim.verdict(ref_is_max, label + ": u0 always max");
    }
    table.print();
    std::cout << "paper: G tracks the radius R_u0 — moving u0 to the middle "
                 "halves it (measured ratio "
              << format_double(results[0].values.at("steady G") /
                                   results[1].values.at("steady G"),
                               2)
              << ", predicted ~2)\n";
  };
}

// E14 — the gradient guarantee is topology-independent (Def. 3.3 speaks only
//   of paths and weights). Sweep structurally different graphs with the same
//   worst-case drift and verify: zero gradient-bound violations, and the
//   worst *local* skew stays at the single-edge scale while the weighted
//   diameter (and with it the permissible global skew) varies wildly.
//
// The topology axis is a sweep axis of registry component strings —
// adding a registered topology here is a one-line change.
ClaimBody topology_sweep(const ParamMap& args) {
  const double measure = args.get_double("measure", 400.0);
  return [=](Claim& claim) {
    auto base = fast_line_spec(32);  // the topology axis replaces the line
    base.seed = 3;

    Sweep sweep(base);
    sweep.axis("topo", std::vector<std::string>{
                           "line", "ring", "grid:rows=6,cols=6", "torus:rows=6,cols=6",
                           "hypercube:dim=5", "star", "tree", "barbell:k=12,path=8"});

    const auto results = claim.run(sweep, [measure](Scenario& s, RunResult& r) {
      s.start();
      const double ghat = s.spec().aopt.gtilde_static;
      const double sigma = s.spec().aopt.sigma();
      const auto& edges = s.initial_edges();
      const double kappa = metric_kappa(s.engine(), edges.front());

      s.run_until(2.0 * ghat / s.spec().aopt.mu);
      double worst_local = 0.0;
      double worst_pair = 0.0;
      int violations = 0;
      const Time start = s.sim().now();
      while (s.sim().now() < start + measure) {
        s.run_for(10.0);
        worst_local = std::max(worst_local, measure_skew(s.engine()).worst_local);
        for (const auto& p : measure_gradient(s.engine(), 1.0)) {
          worst_pair = std::max(worst_pair, p.skew);
          if (p.skew > gradient_bound(p.kappa_dist, ghat, sigma)) ++violations;
        }
      }

      const int diam = hop_diameter(s.spec().n, edges);
      r.values["hop diam"] = diam;
      r.values["Ghat"] = ghat;
      r.values["worst local"] = worst_local;
      r.values["local bound"] = gradient_bound(kappa, ghat, sigma);
      r.values["worst pair"] = worst_pair;
      r.values["pair bound at diam"] = gradient_bound(diam * kappa, ghat, sigma);
      r.values["violations"] = violations;
    });

    Table table("E14 — topology sweep (worst-case constant drift, same params)");
    table.headers({"topology", "hop diam", "Ghat", "worst local", "local bound",
                   "worst pair skew", "pair bound at diam", "violations"});
    for (const auto& r : results) {
      table.row()
          .cell(r.axes.at("topo"))
          .cell(r.values.at("hop diam"), 0)
          .cell(r.values.at("Ghat"))
          .cell(r.values.at("worst local"))
          .cell(r.values.at("local bound"))
          .cell(r.values.at("worst pair"))
          .cell(r.values.at("pair bound at diam"))
          .cell(r.values.at("violations"), 0);
      claim.verdict(r.values.at("violations") == 0, r.axes.at("topo") + ": zero violations");
    }
    table.print();
    std::cout << "paper: 0 violations on every topology; the local column is flat "
                 "across shapes while diameters differ by an order of magnitude\n";
  };
}

// E15 — the estimate layer is the currency of the whole construction: κ_e
//   must exceed 4(ε_e + µτ_e) (eq. 9), so every gradient guarantee is
//   proportional to the estimate quality ε. This experiment sweeps the
//   beacon period and the delay jitter of the *message-based* estimate
//   provider, reports the derived ε (beacon_eps), the resulting κ and local
//   bound, and the measured worst estimate error and local skew — verifying
//   eq. (1) empirically and showing the bound degrade gracefully.
ClaimBody estimate_quality(const ParamMap& args) {
  const int n = args.get_int("n", 12);
  const double measure = args.get_double("measure", 400.0);
  return [=](Claim& claim) {
    Table table("E15 — beacon estimate sweep (line n=" + std::to_string(n) + ")");
    table.headers({"beacon period", "delay jitter", "derived eps", "kappa",
                   "local bound", "worst est err", "err <= eps", "worst local"});

    // (beacon period, delay_min, delay_max) per configuration.
    for (const auto& [beacon, delay_min, delay_max] :
         {std::array{0.1, 0.08, 0.12}, std::array{0.25, 0.05, 0.25},
          std::array{0.5, 0.1, 0.5}, std::array{1.0, 0.0, 1.0}}) {
      ScenarioSpec spec;
      spec.n = n;
      spec.topology = ComponentSpec("line");
      spec.explicit_edges = topo_line(n);  // for the suggest_gtilde calls below
      spec.edge_params = default_edge_params(0.05, 0.25, delay_max, delay_min);
      spec.aopt.rho = 1e-3;
      spec.aopt.mu = 0.1;
      spec.estimates = ComponentSpec("beacon");
      spec.engine.beacon_period = beacon;
      spec.engine.tick_period = beacon;
      spec.drift = ComponentSpec("spread");
      spec.aopt.gtilde_static =
          suggest_gtilde(n, spec.explicit_edges, spec.edge_params, spec.aopt);
      // κ grows with eps; the suggested G̃ already accounts for it because
      // suggest_gtilde uses the configured edge eps, so bump it by the ratio.
      const double eps =
          beacon_eps(spec.edge_params, beacon, spec.aopt.rho, spec.aopt.mu);
      {
        EdgeParams effective = spec.edge_params;
        effective.eps = eps;
        spec.aopt.gtilde_static =
            std::max(spec.aopt.gtilde_static,
                     suggest_gtilde(n, spec.explicit_edges, effective, spec.aopt));
      }
      Scenario s(spec);
      s.start();
      const double kappa = metric_kappa(s.engine(), EdgeKey(0, 1));
      const double bound =
          gradient_bound(kappa, spec.aopt.gtilde_static, spec.aopt.sigma());

      s.run_until(50.0);  // warm up the estimate caches
      double worst_err = 0.0;
      double worst_local = 0.0;
      const Time start = s.sim().now();
      while (s.sim().now() < start + measure) {
        s.run_for(1.7);
        for (NodeId u = 0; u < n; ++u) {
          for (const NeighborView& nv : s.graph().view_neighbors(u)) {
            const NodeId v = nv.id;
            const auto est = s.estimate_of(u, v);
            if (!est.has_value()) continue;
            worst_err =
                std::max(worst_err, std::fabs(*est - s.engine().logical(v)));
          }
        }
        worst_local = std::max(worst_local, measure_skew(s.engine()).worst_local);
      }

      const bool err_ok = worst_err <= eps + 1e-9;
      table.row()
          .cell(beacon)
          .cell(delay_max - delay_min)
          .cell(eps)
          .cell(kappa)
          .cell(bound)
          .cell(worst_err)
          .cell(err_ok)
          .cell(worst_local);
      claim.verdict(err_ok, "beacon period " + format_double(beacon) + ": err <= eps");
    }
    table.print();
    std::cout << "paper: eq. (1) holds for every configuration (err <= eps), and\n"
                 "the guarantee degrades linearly with the estimate quality —\n"
                 "eq. (9)'s kappa > 4(eps + mu*tau) made concrete.\n";
  };
}

}  // namespace

void register_skew_claims(Registry<ClaimFn>& r) {
  r.add({"E1",
         "Theorem 5.6: growth rate <= 2*rho; recovery rate >= mu(1-rho)-2rho; "
         "steady-state G = O(D)",
         {{"sizes", "8,16,32,64", "line sizes n (at least 2, for the steady-G fit)"},
          {"settle", "900", "model seconds between the decay window and the steady samples"}},
         global_skew});
  r.add({"E2",
         "Theorem 5.22/Cor 5.26: skew(d) <= (log_sigma(Ghat/d)+O(1))*d after "
         "stabilization",
         {{"n", "32", "line size"},
          {"horizon", "1500", "model seconds measured after the warm-up"}},
         gradient_skew});
  r.add({"E3",
         "Cor 5.26: local skew = O(kappa log_sigma(D/kappa)) while global skew = Theta(D)",
         {{"sizes", "8,16,32,64", "line sizes n (at least 2, for the fits)"},
          {"seeds", "1", "seeds, one run per (n, seed)"},
          {"measure", "600", "model seconds measured after stabilization"}},
         local_skew_scaling});
  r.add({"E7",
         "eq. (8): larger sigma = (1-rho)mu/2rho => tighter gradient; local bound "
         "scales like 1/log(sigma)",
         {{"n", "16", "line size"},
          {"measure", "500", "model seconds measured after stabilization"}},
         sigma_sweep});
  r.add({"E13",
         "§3 remark: with a boosted reference node u0, the skew regime is set by the "
         "radius R_u0 instead of the diameter D",
         {{"n", "32", "line size"}, {"horizon", "1200", "model seconds per placement"}},
         reference_node});
  r.add({"E14",
         "Def. 3.3: gradient bound holds on every topology; local skew is set by kappa, "
         "not by the network shape",
         {{"measure", "400", "model seconds measured after stabilization"}},
         topology_sweep});
  r.add({"E15",
         "eq. (1)/(9): the gradient guarantee scales with the estimate layer's eps; "
         "beacon-based estimates verified against their derived error bound",
         {{"n", "12", "line size"},
          {"measure", "400", "model seconds measured per configuration"}},
         estimate_quality});
}

}  // namespace gcs::bench
