// Paper claims about topology changes and stabilization (E4–E6, E8–E11),
// each a ClaimBody factory registered at the bottom.
#include <cmath>
#include <map>

#include "exp_common.h"

namespace gcs::bench {
namespace {

// E4 — baseline comparison (§1/§2 motivation).
//   Same workload for four algorithms: AOPT, max-jump (Srikanth–Toueg-style
//   flooding with clock jumps), bounded-rate max chasing (MC rule only), and
//   free-running clocks. Two phases:
//     steady:   worst local skew on a drift-stressed line,
//     shortcut: a long-range edge appears and reveals the hidden end-to-end
//               skew — max-style algorithms dump it onto a single old edge,
//               AOPT redistributes within the gradient bound.
ClaimBody baseline_comparison(const ParamMap& args) {
  ScenarioSpec base;
  base.n = args.get_int("n", 16);
  base.seed = args.get_u64("seed", 1);
  base.topology = ComponentSpec("line");
  base.aopt.rho = 5e-3;
  base.aopt.mu = 0.1;
  base.aopt.gtilde_static = 80.0;  // dominates the hidden Θ(D) skew
  base.drift = ComponentSpec("spread");
  base.estimates = ComponentSpec("uniform");
  apply_adversarial_delays(base);  // §8 regime: staleness Θ(D)
  return [=](Claim& claim) {
    Sweep sweep(base);
    sweep.axis("algo", std::vector<std::string>{"aopt", "max-jump", "bounded-rate-max",
                                                "free-running"});
    const auto results = claim.run(sweep, [](Scenario& s, RunResult& r) {
      const int n = s.spec().n;
      s.start();
      // Long steady phase: drift must accumulate past the per-hop max-estimate
      // staleness before the algorithms separate (hidden skew ~ min(2ρt, Θ(D))).
      s.run_until(4000.0);
      RunningStats global;
      double steady_local = 0.0;
      for (int step = 0; step < 100; ++step) {
        s.run_for(5.0);
        const auto snap = measure_skew(s.engine());
        global.add(snap.global);
        steady_local = std::max(steady_local, snap.worst_local);
      }

      // Shortcut phase: the worst skew on an *old* edge after the insertion,
      // and the largest discontinuity (jumping algorithms).
      const auto old_edges = topo_line(n);
      s.graph().create_edge(EdgeKey(0, n - 1), s.spec().edge_params);
      double old_edge = 0.0;
      for (int step = 0; step < 300; ++step) {
        s.run_for(0.5);
        old_edge = std::max(old_edge, worst_skew_over(s.engine(), old_edges));
      }
      double max_jump = 0.0;
      for (NodeId u = 0; u < n; ++u) {
        if (auto* node = dynamic_cast<MaxJumpNode*>(&s.engine().algorithm(u))) {
          max_jump = std::max(max_jump, node->max_jump());
        }
      }
      r.values["steady global"] = global.mean();
      r.values["steady local"] = steady_local;
      r.values["old edge"] = old_edge;
      r.values["max jump"] = max_jump;
    });

    Table table("E4 — algorithm comparison (line n=" + std::to_string(base.n) +
                ", adversarial max-delays, drift split)");
    table.headers({"algorithm", "steady global", "steady local",
                   "old-edge skew after shortcut", "largest jump"});
    for (const auto& r : results) {
      table.row()
          .cell(r.axes.at("algo"))
          .cell(r.values.at("steady global"))
          .cell(r.values.at("steady local"))
          .cell(r.values.at("old edge"))
          .cell(r.values.at("max jump"));
    }
    table.print();

    const double aopt = results[0].values.at("old edge");
    const double maxjump = results[1].values.at("old edge");
    std::cout << "paper's motivation check: max-jump concentrates "
              << format_double(maxjump, 2)
              << " skew on one long-standing edge after the shortcut appears; "
                 "AOPT keeps old edges at "
              << format_double(aopt, 2) << " ("
              << format_double(maxjump / std::max(aopt, 1e-9), 1) << "x better)\n";
  };
}

// E5 — Theorem 5.25: stabilization time after an edge appears is O(Ĝ/µ) = O(D).
//   A long-range edge is inserted into a stabilized line. We measure
//     (a) the logical span of the staged insertion (agreed T0+I − L at
//         discovery), which the paper proves is Θ(G̃/µ) = Θ(D), and
//     (b) the time until the skew on the new edge drops under its stable
//         gradient bound and stays there,
//   and verify both scale linearly with n.
ClaimBody stabilization(const ParamMap& args) {
  const auto sizes = int_list(args, "sizes", "8,12,16,24", 2);  // the insertion-time fit
  return [=](Claim& claim) {
    Sweep sweep(fast_line_spec(8));
    sweep.axis("n", sizes);
    const auto results = claim.run(sweep, [](Scenario& s, RunResult& r) {
      s.start();
      const int n = s.spec().n;
      const double ghat = s.spec().aopt.gtilde_static;
      const double sigma = s.spec().aopt.sigma();

      s.run_until(300.0);  // settle the line
      // Build macroscopic (but legal: within the long-path budget) end-to-end
      // skew so the new edge has real work to do.
      scatter_clocks_linearly(s, 0.4 * ghat);
      s.run_for(20.0);
      const EdgeKey shortcut(0, n - 1);
      const Time t_insert = s.sim().now();
      const double skew_at_insert = worst_skew_over(s.engine(), {shortcut});
      s.graph().create_edge(shortcut, s.spec().edge_params);

      const double kappa = metric_kappa(s.engine(), shortcut);
      const double bound = gradient_bound(kappa, ghat, sigma);

      // Track: first time the new-edge skew stays below the bound, and the
      // time at which both endpoints hold the edge on all levels.
      Time below_since = kTimeInf;
      Time stable_at = kTimeInf;
      Time fully_inserted_at = kTimeInf;
      const double required_hold = 50.0;
      const double horizon =
          t_insert + 3.0 * s.spec().aopt.insertion_duration_static(ghat) + 500.0;
      while (s.sim().now() < horizon) {
        s.run_for(2.0);
        const double skew = worst_skew_over(s.engine(), {shortcut});
        if (skew <= bound) {
          if (below_since == kTimeInf) below_since = s.sim().now();
          if (stable_at == kTimeInf && s.sim().now() - below_since >= required_hold) {
            stable_at = below_since;
          }
        } else {
          below_since = kTimeInf;
        }
        if (fully_inserted_at == kTimeInf &&
            s.aopt(0).edge_in_level(n - 1, 1 << 20) &&
            s.aopt(static_cast<NodeId>(n - 1)).edge_in_level(0, 1 << 20)) {
          fully_inserted_at = s.sim().now();
        }
        if (stable_at != kTimeInf && fully_inserted_at != kTimeInf) break;
      }

      r.values["ghat"] = ghat;
      r.values["i_theory"] = s.spec().aopt.insertion_duration_static(ghat);
      r.values["skew_at_insert"] = skew_at_insert;
      r.values["bound"] = bound;
      r.values["t_stable"] = stable_at - t_insert;
      r.values["t_full"] = fully_inserted_at - t_insert;
    });

    Table table("E5 — stabilization after inserting {0, n-1} into a line");
    table.headers({"n", "Ghat", "I(Ghat)", "skew@insert", "new-edge bound",
                   "t(skew<=bound)", "t(full insert)", "full/I", "insert/n"});
    std::vector<double> xs;
    std::vector<double> insert_times;
    for (const auto& r : results) {
      const double i_theory = r.values.at("i_theory");
      const double t_full = r.values.at("t_full");
      table.row()
          .cell(r.n)
          .cell(r.values.at("ghat"))
          .cell(i_theory)
          .cell(r.values.at("skew_at_insert"))
          .cell(r.values.at("bound"))
          .cell(r.values.at("t_stable"))
          .cell(t_full)
          .cell(t_full / i_theory)
          .cell(t_full / r.n);
      xs.push_back(r.n);
      insert_times.push_back(t_full);
    }
    table.print();

    const auto fit = fit_linear(xs, insert_times);
    std::cout << "full-insertion time vs n: linear fit slope "
              << format_double(fit.slope, 2) << ", r2 = " << format_double(fit.r2, 3)
              << "\npaper: stabilization = Theta(Ghat/mu) = Theta(D) -> linear in n "
                 "(T0 grid rounding adds up to one extra I of scatter)\n";
  };
}

// E6 — self-stabilization of the gradient property (§1, §5.3.3).
//   From a corrupted clock state (random scatter within Ghat/2) the system
//   re-establishes legality (Def. 5.13 with the stabilized gradient
//   sequence) within O(Ghat/mu) = O(D) time.
ClaimBody self_stabilization(const ParamMap& args) {
  const auto sizes = int_list(args, "sizes", "8,16,32", 2);  // the recovery fit
  const std::uint64_t seed = args.get_u64("seed", 7);
  return [=](Claim& claim) {
    auto base = fast_line_spec(8);
    base.seed = seed;
    Sweep sweep(base);
    sweep.axis("n", sizes);
    const auto results = claim.run(sweep, [seed](Scenario& s, RunResult& r) {
      s.start();
      const int n = s.spec().n;
      const double ghat = s.spec().aopt.gtilde_static;
      s.run_until(200.0);

      Rng rng(seed ^ (static_cast<std::uint64_t>(n) << 8));
      const double base_l = s.engine().logical(0);
      for (NodeId u = 0; u < n; ++u) {
        s.engine().corrupt_logical(u, base_l + rng.uniform(0.0, ghat / 2.0));
      }
      const auto broken = check_legality(s.engine(), ghat);

      const Time t0 = s.sim().now();
      const double unit = ghat / s.spec().aopt.mu;
      Time legal_at = kTimeInf;
      while (s.sim().now() < t0 + 8.0 * unit) {
        s.run_for(unit / 40.0);
        if (check_legality(s.engine(), ghat).legal()) {
          legal_at = s.sim().now();
          break;
        }
      }
      bool stays = legal_at < kTimeInf;
      if (stays) {
        for (int round = 0; round < 5; ++round) {
          s.run_for(unit / 10.0);
          stays = stays && check_legality(s.engine(), ghat).legal();
        }
      }

      r.values["ghat"] = ghat;
      r.values["margin_at_corrupt"] = broken.worst_margin;
      r.values["recovery"] = legal_at - t0;
      r.values["recovery_norm"] = (legal_at - t0) / unit;
      r.values["stays_legal"] = stays ? 1.0 : 0.0;
    });

    Table table("E6 — recovery time from scattered clock corruption (line)");
    table.headers({"n", "Ghat", "margin@corrupt", "t(legal again)",
                   "t / (Ghat/mu)", "stays legal"});
    std::vector<double> xs;
    std::vector<double> recovery;
    for (const auto& r : results) {
      const bool stays_legal = r.values.at("stays_legal") != 0.0;
      table.row()
          .cell(r.n)
          .cell(r.values.at("ghat"))
          .cell(r.values.at("margin_at_corrupt"))
          .cell(r.values.at("recovery"))
          .cell(r.values.at("recovery_norm"))
          .cell(stays_legal);
      claim.verdict(stays_legal, "n=" + std::to_string(r.n) + ": stays legal");
      xs.push_back(r.n);
      recovery.push_back(r.values.at("recovery"));
    }
    table.print();

    const auto fit = fit_linear(xs, recovery);
    std::cout << "recovery time vs n: slope " << format_double(fit.slope, 2)
              << ", r2 = " << format_double(fit.r2, 3)
              << "\npaper: O(D) self-stabilization -> recovery/(Ghat/mu) bounded "
                 "by a constant across sizes\n";
  };
}

// E8 — Lemma 7.1: with the dynamic-estimate insertion scheme (§7), the
//   logical insertion times of different edges/levels are separated by at
//   least min{I_e, I_e'} / (2^7 · 4^{min(s,s')-2}) (or coincide exactly when
//   s = s'). We run a live scenario with node-local dynamic G̃_u(t) oracles,
//   insert many chords at different times (thus different G̃ snapshots), and
//   check every pair of realized insertion times against the bound.
ClaimBody insertion_separation(const ParamMap& args) {
  const int n = args.get_int("n", 12);
  const int chords = args.get_int("chords", 10);
  require(n >= 4, "param 'n': chords need a ring of at least 4 nodes");
  return [=](Claim& claim) {
    ScenarioSpec spec = fast_line_spec(n);
    spec.name = "insertion-separation";
    spec.topology = ComponentSpec("ring");
    spec.aopt.insertion = InsertionPolicy::kStagedDynamic;
    spec.aopt.B = 8.0;  // practical B (eq. 12 wants an astronomically larger one)
    spec.gskew = ComponentSpec("oracle", ParamMap{{"factor", "2"}, {"margin", "1"}});
    Scenario s(spec);
    s.start();

    // Insert chords at staggered times so each handshake samples a different
    // dynamic G̃_u(t); vary the edge parameters so ℓ_e (and hence I_e) spans
    // several power-of-two buckets — the heterogeneous case of Lemma 7.1.
    const std::vector<EdgeParams> presets = {
        default_edge_params(0.05, 0.25, 0.5, 0.1),
        default_edge_params(0.1, 2.0, 4.0, 0.5),
        default_edge_params(0.2, 8.0, 20.0, 2.0),
    };
    Rng rng(2025);
    std::vector<EdgeKey> inserted;
    Time at = 40.0;
    for (int k = 0; k < chords; ++k) {
      const auto a = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
      const auto b = static_cast<NodeId>((a + 2 + static_cast<NodeId>(rng.below(
                                                      static_cast<std::uint64_t>(n - 3)))) %
                                         n);
      if (a == b) continue;
      const EdgeKey e(a, b);
      if (s.graph().adversary_present(e)) continue;
      s.run_until(at);
      s.graph().create_edge(e, presets[static_cast<std::size_t>(k) % presets.size()]);
      inserted.push_back(e);
      at += rng.uniform(15.0, 45.0);
    }
    s.run_until(at + 250.0);  // let all handshakes complete (largest ∆ ~ 40)

    struct Agreed {
      EdgeKey e;
      double t0;
      double i;
    };
    std::vector<Agreed> agreed;
    for (const auto& e : inserted) {
      const auto info = s.aopt(e.a).peer_info(e.b);
      const auto info_b = s.aopt(e.b).peer_info(e.a);
      if (!info.has_value() || info->t0 == kTimeInf) continue;
      // Lemma 5.5 (I): both sides agreed on identical values.
      require(info_b.has_value() && info_b->t0 == info->t0,
              "endpoints disagree on T0 — Lemma 5.5 violated");
      agreed.push_back({e, info->t0, info->insertion_duration});
    }
    std::cout << "chords with completed handshakes: " << agreed.size() << "\n";

    auto ts_of = [](const Agreed& a, int level) {
      return a.t0 + (1.0 - std::exp2(1.0 - static_cast<double>(level))) * a.i;
    };

    const int max_level = 5;
    std::map<std::pair<int, int>, double> min_gap;
    std::map<std::pair<int, int>, double> min_bound;
    int violations = 0;
    int coincidences = 0;
    for (std::size_t x = 0; x < agreed.size(); ++x) {
      for (std::size_t y = x + 1; y < agreed.size(); ++y) {
        for (int sa = 1; sa <= max_level; ++sa) {
          for (int sb = 1; sb <= max_level; ++sb) {
            const double gap = std::fabs(ts_of(agreed[x], sa) - ts_of(agreed[y], sb));
            const double bound = std::min(agreed[x].i, agreed[y].i) /
                                 (128.0 * std::pow(4.0, std::min(sa, sb) - 2));
            if (sa == sb && gap < 1e-9) {
              ++coincidences;
              continue;
            }
            const auto key = std::make_pair(std::min(sa, sb), std::max(sa, sb));
            if (!min_gap.count(key) || gap < min_gap[key]) {
              min_gap[key] = gap;
              min_bound[key] = bound;
            }
            if (gap < bound * (1.0 - 1e-9)) ++violations;
          }
        }
      }
    }

    Table table("E8 — minimum observed separation per level pair");
    table.headers({"(s,s')", "min |T^e_s - T^e'_s'|", "Lemma 7.1 bound", "ratio"});
    for (const auto& [key, gap] : min_gap) {
      table.row()
          .cell("(" + std::to_string(key.first) + "," + std::to_string(key.second) + ")")
          .cell(gap)
          .cell(min_bound[key])
          .cell(gap / min_bound[key]);
    }
    table.print();
    std::cout << "separation violations: " << violations
              << " (paper: 0)\nexact same-level coincidences (allowed): "
              << coincidences << "\n";
    claim.verdict(violations == 0, "zero separation violations");
  };
}

// E9 — Theorem 8.1: Ω(D) stabilization is unavoidable.
//   §8 construction: on a line with adversarial (maximal, uncompensatable)
//   message delays, Θ(D) skew accumulates between the endpoints while every
//   gradient constraint holds — the skew is *hidden* from the algorithm.
//   When the edge {v0, v_{n-1}} appears, any algorithm whose logical clocks
//   respect the rate envelope [1−ρ, (1+ρ)(1+µ)] needs at least
//   (S − bound) / ((1+ρ)(1+µ) − (1−ρ)) time to bring the edge's skew from S
//   down to its stable gradient bound. We measure AOPT's actual closing time
//   against that envelope lower bound (both are Θ(D); the ratio is the
//   constant-factor gap the paper concedes), and show the only way to beat
//   the bound (max-jump) destroys the gradient property on old edges.
//
// G̃ is derived per (n × algorithm) cell from the n axis by the spec hook.
ClaimBody lower_bound(const ParamMap& args) {
  const auto sizes = int_list(args, "sizes", "12,16,20", 2);  // the fits over n
  return [=](Claim& claim) {
    ScenarioSpec base;
    base.topology = ComponentSpec("line");
    base.aopt.rho = 5e-3;
    base.aopt.mu = 0.1;
    base.drift = ComponentSpec("spread");
    base.estimates = ComponentSpec("uniform");
    Sweep sweep(base);
    sweep.axis("n", sizes);
    sweep.axis("algo", std::vector<std::string>{"aopt", "max-jump"});

    const auto run_fn = [](Scenario& s, RunResult& r) {
      const int n = s.spec().n;
      const double ghat = s.spec().aopt.gtilde_static;
      const auto old_edges = topo_line(n);
      const EdgeKey shortcut(0, n - 1);
      s.start();
      s.run_until(4000.0);  // hidden skew saturates at the gradient equilibrium

      if (s.spec().algo.kind == "max-jump") {
        // Jumping phase: reveal the edge and watch the gradient property on
        // long-standing edges break.
        s.graph().create_edge(shortcut, s.spec().edge_params);
        double old_mj = 0.0;
        for (int step = 0; step < 200; ++step) {
          s.run_for(1.0);
          old_mj = std::max(old_mj, worst_skew_over(s.engine(), old_edges));
        }
        r.values["old_edge"] = old_mj;
        return;
      }

      // AOPT phase.
      const double hidden = worst_skew_over(s.engine(), {shortcut});
      const Time t0 = s.sim().now();
      s.graph().create_edge(shortcut, s.spec().edge_params);
      const double kappa = metric_kappa(s.engine(), shortcut);
      const double bound = gradient_bound(kappa, ghat, s.spec().aopt.sigma());

      double old_aopt = 0.0;
      double gmax = 0.0;
      Time close_at = kTimeInf;
      const double horizon =
          t0 + 2.5 * s.spec().aopt.insertion_duration_static(ghat) + 500.0;
      while (s.sim().now() < horizon) {
        s.run_for(2.0);
        gmax = std::max(gmax, s.engine().true_global_skew());
        old_aopt = std::max(old_aopt, worst_skew_over(s.engine(), old_edges));
        if (worst_skew_over(s.engine(), {shortcut}) <= bound) {
          close_at = s.sim().now();
          break;
        }
      }

      const double envelope_rate = s.spec().aopt.beta() - s.spec().aopt.alpha();
      r.values["hidden"] = hidden;
      r.values["bound"] = bound;
      r.values["lower_bound"] = (hidden - bound) / envelope_rate;
      r.values["t_close"] = close_at - t0;
      r.values["gmax_ok"] = gmax <= ghat ? 1.0 : 0.0;
      r.values["old_edge"] = old_aopt;
    };
    const auto results = claim.run(sweep, run_fn, [](ScenarioSpec& spec) {
      // The max-estimate staleness cap in this regime is ~2.1 per hop; the
      // static estimate must dominate it for the whole run (eq. 6).
      spec.aopt.gtilde_static = 2.1 * (spec.n - 1) + 6.0;
      apply_adversarial_delays(spec, /*delay_max=*/2.0, /*beacon_period=*/1.0);
    });

    Table table("E9 — §8 construction: hidden skew revealed by a new edge");
    table.headers({"n", "hidden S", "stable bound", "envelope LB", "t(close) AOPT",
                   "t/LB", "LB ok", "Gmax<=Ghat", "old-edge AOPT",
                   "old-edge max-jump"});

    std::vector<double> xs;
    std::vector<double> lbs;
    std::vector<double> measured;
    // Grid order: algo varies fastest, so rows pair as (aopt, max-jump) per n.
    for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
      const RunResult& aopt = results[i];
      const RunResult& mj = results[i + 1];
      const double lower_bound = aopt.values.at("lower_bound");
      const double t_close = aopt.values.at("t_close");
      const bool lb_ok = t_close >= lower_bound * (1.0 - 1e-6);
      const bool gmax_ok = aopt.values.at("gmax_ok") != 0.0;
      table.row()
          .cell(aopt.n)
          .cell(aopt.values.at("hidden"))
          .cell(aopt.values.at("bound"))
          .cell(lower_bound)
          .cell(t_close)
          .cell(t_close / lower_bound)
          .cell(lb_ok)
          .cell(gmax_ok)
          .cell(aopt.values.at("old_edge"))
          .cell(mj.values.at("old_edge"));
      claim.verdict(lb_ok && gmax_ok, "n=" + std::to_string(aopt.n) + ": LB ok, Gmax<=Ghat");
      xs.push_back(aopt.n);
      lbs.push_back(lower_bound);
      measured.push_back(t_close);
    }
    table.print();

    const auto lb_fit = fit_linear(xs, lbs);
    const auto m_fit = fit_linear(xs, measured);
    std::cout << "envelope lower bound vs n: slope " << format_double(lb_fit.slope, 2)
              << " (r2=" << format_double(lb_fit.r2, 3) << ")\n"
              << "AOPT closing time vs n:    slope " << format_double(m_fit.slope, 2)
              << " (r2=" << format_double(m_fit.r2, 3) << ")\n"
              << "both scale linearly with D: AOPT's stabilization is within a\n"
                 "constant factor of the Theorem 8.1 floor (the paper's constants\n"
                 "are large; §5.5 concedes this). max-jump beats the floor only by\n"
                 "jumping — at the cost of Θ(D) skew on a long-standing edge.\n";
  };
}

// E10 — §5.5: insertion-strategy ablation.
//   staged (the paper's AOPT), weight-decay ([16]-style: all levels at once
//   with exponentially shrinking κ), and immediate (naive: full-weight edge
//   instantly — violates the theory). We insert a shortcut into a line that
//   carries end-to-end skew and compare: worst legality margin during the
//   insertion window, worst old-edge skew, and time to full insertion.
ClaimBody ablation_insertion(const ParamMap& args) {
  const int n = args.get_int("n", 10);
  return [=](Claim& claim) {
    auto base = fast_line_spec(n);
    base.name = "ablation";
    Sweep sweep(base);
    sweep.axis("insertion", std::vector<std::string>{"staged", "decay", "immediate"});
    const auto results = claim.run(sweep, [](Scenario& s, RunResult& r) {
      const int nodes = s.spec().n;
      s.start();
      const double ghat = s.spec().aopt.gtilde_static;

      s.run_until(100.0);
      // Scatter the line linearly across 0.4*Ghat — *legal* for every existing
      // path (per-edge scatter stays below the level-1 allowance), but far
      // above the stable bound of the shortcut about to appear. Insert
      // immediately, before the max-estimate chase collapses the scatter.
      scatter_clocks_linearly(s, 0.4 * ghat);
      const Time t_insert = s.sim().now();
      const EdgeKey shortcut(0, nodes - 1);
      s.graph().create_edge(shortcut, s.spec().edge_params);

      double worst_margin = -kTimeInf;
      double worst_old_edge = 0.0;
      double time_to_full = kTimeInf;
      const auto old_edges = topo_line(nodes);
      const double final_kappa = metric_kappa(s.engine(), shortcut);
      const double horizon =
          t_insert + 2.5 * s.spec().aopt.insertion_duration_static(ghat) + 200.0;
      const auto observe = [&] {
        const auto report = check_legality(s.engine(), ghat);
        worst_margin = std::max(worst_margin, report.worst_margin);
        worst_old_edge =
            std::max(worst_old_edge, worst_skew_over(s.engine(), old_edges));
        // "Fully inserted": on all levels AND (weight decay) κ reached final.
        if (time_to_full == kTimeInf &&
            s.aopt(0).edge_in_level(nodes - 1, 1 << 20) &&
            s.aopt(static_cast<NodeId>(nodes - 1)).edge_in_level(0, 1 << 20) &&
            s.aopt(0).edge_kappa(nodes - 1) <= final_kappa * 1.0001) {
          time_to_full = s.sim().now() - t_insert;
        }
      };
      // Dense sampling right after insertion (where naive insertion spikes),
      // then sparse until the staged schedule completes.
      for (int step = 0; step < 60; ++step) {
        s.run_for(1.0);
        observe();
      }
      while (s.sim().now() < horizon) {
        s.run_for(10.0);
        observe();
        if (time_to_full != kTimeInf &&
            s.sim().now() > t_insert + time_to_full + 150.0) {
          break;  // enough post-insertion observation
        }
      }
      r.values["worst_margin"] = worst_margin;
      r.values["worst_old_edge"] = worst_old_edge;
      r.values["time_to_full"] = time_to_full;
      r.values["new_edge_final"] = worst_skew_over(s.engine(), {shortcut});
    });

    Table table("E10 — insertion-policy ablation (line n=" + std::to_string(n) +
                " with 0.4*Ghat end-to-end scatter)");
    table.headers({"policy", "worst legality margin", "worst old-edge skew",
                   "t(full insertion)", "new-edge final skew"});
    for (const auto& r : results) {
      table.row()
          .cell(r.axes.at("insertion"))
          .cell(r.values.at("worst_margin"))
          .cell(r.values.at("worst_old_edge"))
          .cell(r.values.at("time_to_full"))
          .cell(r.values.at("new_edge_final"));
    }
    table.print();
    std::cout << "paper: immediate insertion spikes the legality margin (the new\n"
                 "edge instantly demands a level-s guarantee it cannot meet);\n"
                 "staged and weight-decay keep the system legal throughout, with\n"
                 "staged giving the better final bound (§5.5 discussion).\n";
  };
}

// E11 — the dynamic-graph guarantee under sustained churn (§3.1, §7).
//   Random geometric network with Poisson edge churn that preserves
//   connectivity, dynamic node-local global-skew estimates, staged-dynamic
//   insertion. We track legality over levels, global skew against the
//   static-estimate budget, and the distribution of local skew on edges
//   that have been continuously present long enough to stabilize.
ClaimBody churn(const ParamMap& args) {
  const int n = args.get_int("n", 24);
  const double horizon = args.get_double("horizon", 1500.0);
  const double churn_rate = args.get_double("churn", 0.05);
  const std::uint64_t seed = args.get_u64("seed", 3);
  return [=](Claim& claim) {
    auto spec = fast_line_spec(n);
    spec.topology = ComponentSpec("geometric", ParamMap{{"radius", "0.35"}});
    spec.aopt.insertion = InsertionPolicy::kStagedDynamic;
    spec.aopt.B = 8.0;
    spec.gskew = ComponentSpec("oracle");
    spec.drift = ComponentSpec("walk");
    spec.seed = seed;
    // Churn over the geometric edge candidates (nodes stay put; links flap).
    spec.adversary = ComponentSpec("churn");
    spec.adversary.params.set("rate", churn_rate);
    spec.adversary.params.set("start", 50.0);
    Scenario s(spec);
    s.start();
    auto& churn = dynamic_cast<ChurnAdversary&>(*s.adversary());

    const double ghat = s.spec().aopt.gtilde_static;
    int legality_checks = 0;
    int legality_violations = 0;
    double worst_margin = -kTimeInf;
    RunningStats global;
    std::vector<double> stable_edge_skews;
    const double stable_for = 2.0 * ghat / s.spec().aopt.mu;

    while (s.sim().now() < horizon) {
      s.run_for(25.0);
      const auto report = check_legality(s.engine(), ghat);
      ++legality_checks;
      if (!report.legal()) ++legality_violations;
      worst_margin = std::max(worst_margin, report.worst_margin);
      global.add(s.engine().true_global_skew());
      for (const EdgeKey& e : s.graph().known_edges()) {
        const Time since = s.graph().both_views_since(e);
        if (since == -kTimeInf || s.sim().now() - since < stable_for) continue;
        stable_edge_skews.push_back(
            std::fabs(s.engine().logical(e.a) - s.engine().logical(e.b)));
      }
    }

    Table table("E11 — churn summary (random geometric n=" + std::to_string(n) + ")");
    table.headers({"metric", "value"});
    table.row().cell("churn ops applied").cell(churn.additions() + churn.removals());
    table.row().cell("edge additions").cell(churn.additions());
    table.row().cell("edge removals").cell(churn.removals());
    table.row().cell("legality checks").cell(legality_checks);
    table.row().cell("legality violations").cell(legality_violations);
    table.row().cell("worst legality margin").cell(worst_margin);
    table.row().cell("global skew mean").cell(global.mean());
    table.row().cell("global skew max").cell(global.max());
    table.row().cell("Ghat budget").cell(ghat);
    if (!stable_edge_skews.empty()) {
      table.row().cell("stable-edge skew p50").cell(percentile(stable_edge_skews, 0.5));
      table.row().cell("stable-edge skew p99").cell(percentile(stable_edge_skews, 0.99));
      table.row().cell("stable-edge skew max").cell(
          percentile(stable_edge_skews, 1.0));
    }
    table.print();
    std::cout << "paper: 0 violations expected on checks of stabilized state; "
                 "global skew stays within the budget throughout churn\n";
    claim.verdict(legality_violations == 0, "zero legality violations");
  };
}

}  // namespace

void register_dynamics_claims(Registry<ClaimFn>& r) {
  r.add({"E4",
         "§1/§2 motivation: same adversarial workload, four algorithms: AOPT wins on "
         "local skew and on smoothness after topology changes",
         {{"n", "16", "line size"}, {"seed", "1", "scenario seed"}},
         baseline_comparison});
  r.add({"E5",
         "Theorem 5.25: time to the stable gradient bound on a new edge is "
         "O(Ghat/mu) = O(D), linear in the network extent",
         {{"sizes", "8,12,16,24", "line sizes n (at least 2, for the fit)"}},
         stabilization});
  r.add({"E6",
         "§1, §5.3.3: gradient legality restored within O(Ghat/mu) = O(D) after "
         "arbitrary clock corruption",
         {{"sizes", "8,16,32", "line sizes n (at least 2, for the recovery fit)"},
          {"seed", "7", "scenario seed, also salting the corruption"}},
         self_stabilization});
  r.add({"E8",
         "Lemma 7.1: |T^e_s - T^e'_s'| >= min(I_e,I_e')/(2^7 4^{min(s,s')-2}) or exact "
         "coincidence at equal levels",
         {{"n", "12", "ring size"}, {"chords", "10", "chords inserted at staggered times"}},
         insertion_separation});
  r.add({"E9",
         "Theorem 8.1: closing revealed skew S on a new edge takes >= (S-bound)/(beta-alpha) "
         "time for every envelope-respecting algorithm",
         {{"sizes", "12,16,20", "line sizes n (at least 2, for the fits)"}},
         lower_bound});
  r.add({"E10",
         "§5.5: staged insertion (paper) vs weight-decay ([16]) vs naive immediate insertion",
         {{"n", "10", "line size"}},
         ablation_insertion});
  r.add({"E11",
         "§3.1, §7: gradient legality maintained under continuous topology churn with "
         "dynamic global-skew estimates",
         {{"n", "24", "nodes of the random geometric graph"},
          {"horizon", "1500", "model seconds"},
          {"churn", "0.05", "edge churn rate (operations per model second)"},
          {"seed", "3", "scenario seed"}},
         churn});
}

}  // namespace gcs::bench
