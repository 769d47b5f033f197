// campaign/report + campaign/gate: the artifact half of the sweep
// subsystem. Reports must round-trip bit-exactly (doubles included),
// tolerate a torn final line, refuse cross-campaign merges, and the gate
// must be a pure deterministic function of the two reports.
#include <cmath>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/gate.hpp"
#include "campaign/manifest.hpp"
#include "campaign/plan.hpp"
#include "campaign/report.hpp"
#include "obs/event.hpp"
#include "robust/checkpoint.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace {

using namespace cadapt;
using campaign::CellResult;
using campaign::Report;
using robust::TrialRecord;

campaign::Plan demo_plan() {
  std::istringstream is(
      "name = demo\nalgos = 4:2:1\nprofiles = shuffled\nk = 2..3\n"
      "trials = 4\nseed = 9\n");
  return campaign::expand_plan(campaign::parse_manifest(is));
}

TrialRecord ok_trial(std::uint64_t trial, double ratio, std::uint64_t boxes) {
  TrialRecord r;
  r.trial = trial;
  r.seed = 100 + trial;
  r.completed = true;
  r.boxes = boxes;
  r.ratio = ratio;
  r.unit_ratio = ratio / 2.0;
  return r;
}

// A report with real aggregates for the demo plan, built without running
// the engine: cells are synthesized from hand-made trial records.
// `spread` controls the within-cell sample dispersion (and hence CI
// width): 8.0 gives wide CIs, 1000.0 near-deterministic cells.
Report demo_report(double ratio_scale = 1.0, double spread = 8.0) {
  const campaign::Plan plan = demo_plan();
  Report report;
  report.name = plan.manifest.name;
  report.config_hash = plan.config_hash;
  report.cells_total = plan.cells.size();
  for (const campaign::Cell& cell : plan.cells) {
    std::vector<TrialRecord> records;
    for (std::uint64_t t = 0; t < cell.trials; ++t) {
      records.push_back(ok_trial(
          t,
          ratio_scale *
              (2.0 + static_cast<double>(cell.index + t) / spread),
          32 + t));
    }
    report.cells.push_back(
        campaign::aggregate_cell(cell, records, plan.config_hash,
                                 plan.manifest.unit_progress));
  }
  report.fits = campaign::compute_fits(report);
  return report;
}

TEST(Aggregate, CountsAndStatistics) {
  const campaign::Plan plan = demo_plan();
  const campaign::Cell& cell = plan.cells[0];
  ASSERT_EQ(cell.trials, 4u);

  std::vector<TrialRecord> records;
  records.push_back(ok_trial(0, 3.0, 10));
  records.push_back(ok_trial(1, 5.0, 20));
  TrialRecord capped;  // hit the box cap: counts, no sample
  capped.trial = 2;
  capped.boxes = 30;
  records.push_back(capped);
  TrialRecord failed;  // contained error: excluded from boxes too
  failed.trial = 3;
  failed.failed = true;
  failed.category = robust::ErrorCategory::kInjected;
  failed.what = "boom";
  records.push_back(failed);

  const CellResult out =
      campaign::aggregate_cell(cell, records, plan.config_hash, false);
  EXPECT_EQ(out.index, cell.index);
  EXPECT_EQ(out.trials, 4u);
  EXPECT_EQ(out.completed, 2u);
  EXPECT_EQ(out.incomplete, 1u);
  EXPECT_EQ(out.failed, 1u);
  EXPECT_EQ(out.samples, (std::vector<double>{3.0, 5.0}));
  EXPECT_DOUBLE_EQ(out.mean, 4.0);
  EXPECT_DOUBLE_EQ(out.q50, 4.0);
  EXPECT_DOUBLE_EQ(out.boxes_mean, 20.0);  // (10+20+30)/3, failed excluded
  EXPECT_LE(out.ci_lo, out.mean);
  EXPECT_GE(out.ci_hi, out.mean);

  // unit_progress flips the sampled metric to unit_ratio.
  const CellResult unit =
      campaign::aggregate_cell(cell, records, plan.config_hash, true);
  EXPECT_EQ(unit.samples, (std::vector<double>{1.5, 2.5}));
}

TEST(Aggregate, CiSeedIsPureFunctionOfIdentity) {
  EXPECT_EQ(campaign::cell_ci_seed(1, 2), campaign::cell_ci_seed(1, 2));
  EXPECT_NE(campaign::cell_ci_seed(1, 2), campaign::cell_ci_seed(1, 3));
  EXPECT_NE(campaign::cell_ci_seed(1, 2), campaign::cell_ci_seed(2, 2));
}

TEST(Report, CellEventRoundTripsBitExactly) {
  const Report report = demo_report();
  for (const CellResult& cell : report.cells) {
    const CellResult back =
        campaign::cell_from_event(campaign::cell_event(cell), 1);
    EXPECT_EQ(back, cell);  // operator== covers every field, doubles exact
  }
}

TEST(Report, WriteLoadRoundTripsBitExactly) {
  const Report report = demo_report();
  std::ostringstream os;
  campaign::write_report(os, report);
  std::istringstream is(os.str());
  const Report back = campaign::load_report(is);
  EXPECT_EQ(back.version, report.version);
  EXPECT_EQ(back.name, report.name);
  EXPECT_EQ(back.config_hash, report.config_hash);
  EXPECT_EQ(back.cells_total, report.cells_total);
  EXPECT_EQ(back.cells, report.cells);
  EXPECT_EQ(back.fits, report.fits);

  // Idempotent encoding: re-serializing the loaded report is byte-equal.
  std::ostringstream os2;
  campaign::write_report(os2, back);
  EXPECT_EQ(os2.str(), os.str());
}

TEST(Report, ToleratesTornFinalLine) {
  const Report report = demo_report();
  std::ostringstream os;
  campaign::write_report(os, report);
  std::string text = os.str();
  // Tear mid-way through the LAST CELL line — the expected wound of a
  // killed writer. Everything after it (the fit line) goes too, so the
  // torn cell line is the final line and must be silently dropped.
  const std::size_t last_cell = text.rfind("\"type\":\"sweep_cell\"");
  ASSERT_NE(last_cell, std::string::npos);
  text.resize(last_cell + 30);
  std::istringstream is(text);
  const Report back = campaign::load_report(is);
  EXPECT_EQ(back.cells.size(), report.cells.size() - 1);
  EXPECT_TRUE(back.fits.empty());
}

TEST(Report, RejectsMalformedContent) {
  // not a report header
  {
    std::istringstream is("{\"type\":\"sweep_cell\",\"index\":0}\n");
    EXPECT_THROW(campaign::load_report(is), util::ParseError);
  }
  // unknown record type after a valid header
  {
    const Report report = demo_report();
    std::ostringstream os;
    campaign::write_report(os, report);
    std::istringstream is(os.str() + "{\"type\":\"mystery\"}\n");
    EXPECT_THROW(campaign::load_report(is), util::ParseError);
  }
  // samples/completed mismatch
  {
    CellResult cell = demo_report().cells[0];
    cell.samples.pop_back();
    EXPECT_THROW(
        campaign::cell_from_event(campaign::cell_event(cell), 3),
        util::ParseError);
  }
}

TEST(Report, MergeReassemblesShards) {
  const Report full = demo_report();
  Report even = full, odd = full;
  even.shards = odd.shards = 2;
  even.shard_index = 0;
  odd.shard_index = 1;
  even.cells.clear();
  odd.cells.clear();
  even.fits.clear();
  odd.fits.clear();
  for (const CellResult& cell : full.cells) {
    (cell.index % 2 == 0 ? even : odd).cells.push_back(cell);
  }
  even.wall_ms = 5;
  odd.wall_ms = 7;

  const Report merged = campaign::merge_reports({odd, even});
  EXPECT_EQ(merged.cells, full.cells);  // re-sorted by index
  EXPECT_EQ(merged.fits, full.fits);    // recomputed at full coverage
  EXPECT_EQ(merged.wall_ms, 12u);
  EXPECT_EQ(merged.shards, 1u);

  // Missing a shard: the union no longer covers the grid.
  EXPECT_THROW(campaign::merge_reports({even}), util::ParseError);
  // Duplicate cell indices.
  EXPECT_THROW(campaign::merge_reports({even, even, odd}), util::ParseError);
  // Cross-campaign mix.
  Report other = odd;
  other.config_hash ^= 1;
  EXPECT_THROW(campaign::merge_reports({even, other}), util::ParseError);
}

TEST(Report, FitsRecoverTheGrowthExponent) {
  const Report report = demo_report();
  ASSERT_EQ(report.fits.size(), 1u);
  EXPECT_EQ(report.fits[0].algo, "4:2:1");
  EXPECT_EQ(report.fits[0].profile, "shuffled");
  EXPECT_DOUBLE_EQ(report.fits[0].expected, 2.0);  // log_2 4
  // demo samples grow slowly with index, not with n — exponent near 0.
  EXPECT_LT(report.fits[0].exponent, 0.5);
}

// ---- the sweep_cell codec ------------------------------------------

/// A token drawn to stress the escaper: quotes, backslashes, control
/// bytes, multi-byte UTF-8, or plain ASCII.
std::string random_token(util::Rng& rng) {
  static const char* kPieces[] = {"worst", "8:4:1", "\"",      "\\",
                                  "\x01",  "\t",    "\n",      "\x1f",
                                  "é",     "π",     "\xe2\x82\xac", " "};
  std::string token;
  const std::uint64_t pieces = rng.below(5);
  for (std::uint64_t i = 0; i < pieces; ++i) {
    token += kPieces[rng.below(std::size(kPieces))];
  }
  return token;
}

/// A double from the awkward corners of the shortest-round-trip writer.
double random_double(util::Rng& rng) {
  static const double kCorners[] = {
      -0.0, 0.0, 2.0, 1e308, -1e308, 5e-324, 2.2250738585072009e-308,
      0.1, 1.0 / 3.0, 123456789.0, 1e21, 1e-7};
  return rng.bernoulli(0.5) ? kCorners[rng.below(std::size(kCorners))]
                            : (rng.uniform01() - 0.5) * 1e6;
}

TEST(CellCodec, WriterBytesMatchTheEventRouteOnRandomCells) {
  util::Rng rng(2024);
  std::string direct;
  for (int iter = 0; iter < 2000; ++iter) {
    CellResult cell;
    cell.index = rng();
    cell.algo = random_token(rng);
    cell.profile = random_token(rng);
    cell.sort = random_token(rng);
    cell.policy = rng.bernoulli(0.5) ? random_token(rng) : "";
    cell.k = static_cast<unsigned>(rng());
    cell.n = rng();
    cell.trials = rng.below(8);
    cell.incomplete = rng.below(3);
    cell.capped = rng.bernoulli(0.5) ? 0 : rng.below(3) + 1;
    cell.failed = rng.below(3);
    cell.completed = rng.below(6);  // 0 = empty samples
    for (std::uint64_t t = 0; t < cell.completed; ++t) {
      cell.samples.push_back(random_double(rng));
    }
    cell.mean = random_double(rng);
    cell.ci_lo = random_double(rng);
    cell.ci_hi = random_double(rng);
    cell.q50 = random_double(rng);
    cell.q90 = random_double(rng);
    cell.q95 = random_double(rng);
    cell.boxes_mean = random_double(rng);
    cell.wall_ns = rng();

    const std::string via_event = obs::to_jsonl(campaign::cell_event(cell));
    direct.clear();
    campaign::append_cell_jsonl(direct, cell);
    ASSERT_EQ(direct, via_event) << "iteration " << iter;

    // The line decodes back to the same cell (samples bit-exact; -0.0
    // in a scalar field reads back as the integer 0, on both routes).
    obs::Event parsed;
    ASSERT_TRUE(obs::parse_jsonl(direct, &parsed));
    const CellResult back = campaign::cell_from_event(parsed, 1);
    std::string again;
    campaign::append_cell_jsonl(again, back);
    obs::Event reparsed;
    ASSERT_TRUE(obs::parse_jsonl(again, &reparsed));
    EXPECT_EQ(campaign::cell_from_event(reparsed, 1), back);
    EXPECT_EQ(back.algo, cell.algo);
    EXPECT_EQ(back.policy, cell.policy);
    ASSERT_EQ(back.samples.size(), cell.samples.size());
    for (std::size_t i = 0; i < cell.samples.size(); ++i) {
      EXPECT_EQ(std::signbit(back.samples[i]), std::signbit(cell.samples[i]));
      EXPECT_EQ(back.samples[i], cell.samples[i]);
    }
  }
}

TEST(CellCodec, FirstKeyWinsAndWrongKindsFallBack) {
  obs::Event event("sweep_cell");
  event.u64("index", 4)
      .u64("index", 9)           // a repeat: the first occurrence wins
      .str("n", "64")            // a string where a u64 belongs: 0
      .i64("trials", -3)         // negative: 0
      .f64("failed", 1.0)        // a double never narrows: 0
      .u64("mean", 3)            // an integer widens: 3.0
      .flag("algo", true)        // a bool where a string belongs: ""
      .u64("completed", 1)
      .str("samples", "2.5")
      .str("samples", "")        // the repeat is ignored
      .u64("unknown", 1);        // unknown keys are ignored
  const CellResult cell = campaign::cell_from_event(event, 7);
  EXPECT_EQ(cell.index, 4u);
  EXPECT_EQ(cell.n, 0u);
  EXPECT_EQ(cell.trials, 0u);
  EXPECT_EQ(cell.failed, 0u);
  EXPECT_EQ(cell.mean, 3.0);
  EXPECT_EQ(cell.algo, "");
  EXPECT_EQ(cell.policy, "");  // missing: default
  EXPECT_EQ(cell.capped, 0u);
  EXPECT_EQ(cell.samples, std::vector<double>{2.5});
}

TEST(CellCodec, KAboveTheU32ColumnIsAParseErrorNotATruncation) {
  CellResult cell = demo_report().cells[0];
  obs::Event event = campaign::cell_event(cell);
  for (obs::Field& field : event.fields) {
    if (field.key == "k") field.value = std::uint64_t{4294967299};
  }
  try {
    campaign::cell_from_event(event, 5);
    FAIL() << "k = 2^32 + 3 loaded";
  } catch (const util::ParseError& e) {
    EXPECT_EQ(e.line(), 5u);
    EXPECT_NE(std::string(e.what()).find("k = 4294967299"), std::string::npos)
        << e.what();
  }
  // The largest u32 still loads.
  for (obs::Field& field : event.fields) {
    if (field.key == "k") field.value = std::uint64_t{4294967295};
  }
  EXPECT_EQ(campaign::cell_from_event(event, 5).k, 4294967295u);

  // Through the whole report loader, with the report's line number.
  const Report report = demo_report();
  std::ostringstream os;
  campaign::write_report(os, report);
  std::string text = os.str();
  const std::string k_field = "\"k\":" + std::to_string(report.cells[1].k);
  const std::size_t second_cell = text.find("\"index\":1,");
  const std::size_t at = text.find(k_field, second_cell);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, k_field.size(), "\"k\":4294967299");
  std::istringstream is(text);
  try {
    campaign::load_report(is);
    FAIL() << "k = 2^32 + 3 loaded";
  } catch (const util::ParseError& e) {
    EXPECT_EQ(e.line(), 4u);  // header, env, cell 0, cell 1
  }
}

TEST(Report, MergeRejectsCellsOutsideTheGrid) {
  // Two shards of a 2-cell grid holding cells 0 and 7: the count matches
  // the grid, but cell 7 does not exist and cell 1 is missing.
  Report full = demo_report();
  Report a = full, b = full;
  a.cells_total = b.cells_total = 2;
  a.cells = {full.cells[0]};
  b.cells = {full.cells[1]};
  b.cells[0].index = 7;
  a.fits.clear();
  b.fits.clear();
  try {
    campaign::merge_reports({a, b});
    FAIL() << "merged a cell outside the grid";
  } catch (const util::ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cell 7"), std::string::npos) << what;
    EXPECT_NE(what.find("grid of 2"), std::string::npos) << what;
  }
}

TEST(Gate, SelfComparisonPasses) {
  const Report report = demo_report();
  const campaign::GateResult gate =
      campaign::gate_against_baseline(report, report);
  EXPECT_TRUE(gate.passed());
  EXPECT_EQ(gate.compared, report.cells.size());
  EXPECT_EQ(gate.skipped, 0u);
  for (const campaign::CellGate& cell : gate.cells) {
    EXPECT_TRUE(cell.comparable);
    EXPECT_FALSE(cell.regression);
    EXPECT_DOUBLE_EQ(cell.rel_change, 0.0);
  }
}

TEST(Gate, InjectedSlowdownFails) {
  const Report report = demo_report();
  campaign::GateOptions options;
  options.inject_factor = 1.5;
  const campaign::GateResult gate =
      campaign::gate_against_baseline(report, report, options);
  EXPECT_FALSE(gate.passed());
  EXPECT_EQ(gate.regressions, report.cells.size());
  // Same comparison through real sample scaling instead of injection.
  const campaign::GateResult scaled =
      campaign::gate_against_baseline(report, demo_report(1.5));
  EXPECT_FALSE(scaled.passed());
}

TEST(Gate, RelThresholdFiltersTinyButSignificantDrift) {
  // Near-deterministic cells (tiny CIs): a +2% drift IS CI-separated,
  // so only the relative-change floor decides the verdict.
  const Report base = demo_report(1.0, 1000.0);
  const Report drift = demo_report(1.02, 1000.0);
  campaign::GateOptions options;
  options.rel_threshold = 0.05;
  EXPECT_TRUE(
      campaign::gate_against_baseline(base, drift, options).passed());
  options.rel_threshold = 0.01;
  EXPECT_FALSE(
      campaign::gate_against_baseline(base, drift, options).passed());
}

TEST(Gate, ImprovementsNeverFail) {
  const campaign::GateResult gate =
      campaign::gate_against_baseline(demo_report(), demo_report(0.5));
  EXPECT_TRUE(gate.passed());
}

TEST(Gate, RefusesMismatchedCampaigns) {
  const Report report = demo_report();
  Report other = report;
  other.config_hash ^= 1;
  EXPECT_THROW(campaign::gate_against_baseline(report, other),
               util::ParseError);
  Report partial = report;
  partial.cells.pop_back();
  EXPECT_THROW(campaign::gate_against_baseline(report, partial),
               util::ParseError);
}

TEST(Gate, DeterministicAcrossReruns) {
  const Report base = demo_report();
  const Report cur = demo_report(1.04);
  const campaign::GateResult a = campaign::gate_against_baseline(base, cur);
  const campaign::GateResult b = campaign::gate_against_baseline(base, cur);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].regression, b.cells[i].regression);
    EXPECT_EQ(a.cells[i].current.lo, b.cells[i].current.lo);
    EXPECT_EQ(a.cells[i].current.hi, b.cells[i].current.hi);
  }
}

}  // namespace
