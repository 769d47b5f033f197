// Seeded mutation differential for the JSONL codec (ctest label `fuzz`).
//
// Lines of the committed BENCH_sweep.json report and of a synthesized
// report (escaped tokens, policy and capped fields, empty samples) are
// mutated with bit flips, truncation, dropped and duplicated fields,
// stray bytes, and numeric extremes. Two agreements must hold on every
// mutant:
//   - obs::parse_jsonl and the original char-by-char parser (the test-only
//     oracle in jsonl_parser_oracle.hpp) give the same verdict, the same
//     error message and the same Event;
//   - report::load_store_jsonl and the row loader (campaign::load_report
//     + CellStore::from_report) give the same store, or the same
//     ParseError message and line number.
// Every run uses the same seeds, so a failure reproduces exactly.
#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/report.hpp"
#include "jsonl_parser_oracle.hpp"
#include "obs/event.hpp"
#include "report_load_util.hpp"
#include "util/random.hpp"

namespace {

using namespace cadapt;

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

std::string bench_sweep_text() {
  std::ifstream is(CADAPT_BENCH_SWEEP_JSON);
  EXPECT_TRUE(is.good()) << CADAPT_BENCH_SWEEP_JSON;
  return std::string(std::istreambuf_iterator<char>(is), {});
}

/// A small report that reaches the codec's optional and escaped paths.
std::string synthesized_report_text() {
  static const char* kTokens[] = {"8:4:1", "worst", "é\"q\\", "tab\there",
                                  "", "π", "\x01"};
  util::Rng rng(99);
  campaign::Report report;
  report.name = "fuzz \"corpus\"";
  report.config_hash = 12345;
  report.cells_total = 16;
  report.truncated = true;
  report.truncate_reason = robust::CancelReason::kDeadline;
  for (std::uint64_t i = 0; i < report.cells_total; ++i) {
    campaign::CellResult cell;
    cell.index = i;
    cell.algo = kTokens[rng.below(std::size(kTokens))];
    cell.profile = kTokens[rng.below(std::size(kTokens))];
    cell.sort = kTokens[rng.below(std::size(kTokens))];
    cell.policy = rng.bernoulli(0.5) ? kTokens[rng.below(3)] : "";
    cell.k = static_cast<unsigned>(rng.below(20));
    cell.n = std::uint64_t{1} << cell.k;
    cell.trials = rng.below(5);
    cell.completed = rng.below(cell.trials + 1);
    cell.incomplete = cell.trials - cell.completed;
    cell.capped = rng.below(cell.incomplete + 1);
    for (std::uint64_t t = 0; t < cell.completed; ++t) {
      cell.samples.push_back(rng.bernoulli(0.2) ? -0.0 : rng.uniform01());
    }
    cell.mean = rng.bernoulli(0.2) ? 2.0 : rng.uniform01() * 1e300;
    cell.q95 = 5e-324;
    cell.wall_ns = rng();
    report.cells.push_back(cell);
  }
  campaign::FitResult fit;
  fit.algo = "8:4:1";
  fit.profile = "é";
  fit.exponent = 1.5;
  report.fits.push_back(fit);
  std::ostringstream os;
  campaign::write_report(os, report);
  return os.str();
}

/// Apply one random mutation to `line`.
void mutate(util::Rng& rng, std::string& line) {
  static const char* kNumbers[] = {
      "18446744073709551615", "18446744073709551616", "4294967295",
      "4294967296",           "-9223372036854775808", "-9223372036854775809",
      "-0",                   "0.0",                  "1e308",
      "1e309",                "-1e308",               "5e-324",
      "1e-400",               "-1",                   "2",
      "1.5e",                 "--1",                  "0x10"};
  static const char kBytes[] = {'"', '\\', '{', '}', '[', ',', ':', '\r',
                                ' ', 'e', '-', '.', '0', 'n', 't', '\x01'};
  if (line.empty()) {
    line += kBytes[rng.below(sizeof kBytes)];
    return;
  }
  switch (rng.below(6)) {
    case 0: {  // bit flip
      const std::size_t at = rng.below(line.size());
      line[at] = static_cast<char>(line[at] ^ (1 << rng.below(8)));
      break;
    }
    case 1:  // truncation
      line.resize(rng.below(line.size()));
      break;
    case 2: {  // drop a field: from one ',' up to the next ',' or '}'
      const std::size_t from = line.find(',', rng.below(line.size()));
      if (from == std::string::npos) break;
      std::size_t to = line.find_first_of(",}", from + 1);
      if (to == std::string::npos) to = line.size();
      line.erase(from, to - from);
      break;
    }
    case 3: {  // duplicate a field before the closing brace
      const std::size_t from = line.find(',', rng.below(line.size()));
      if (from == std::string::npos) break;
      std::size_t to = line.find_first_of(",}", from + 1);
      if (to == std::string::npos) to = line.size();
      const std::string field = line.substr(from, to - from);
      const std::size_t close = line.rfind('}');
      line.insert(close == std::string::npos ? line.size() : close, field);
      break;
    }
    case 4: {  // numeric extreme in place of a value
      const std::size_t colon = line.find(':', rng.below(line.size()));
      if (colon == std::string::npos) break;
      std::size_t end = line.find_first_of(",}", colon + 1);
      if (end == std::string::npos) end = line.size();
      line.replace(colon + 1, end - colon - 1,
                   kNumbers[rng.below(std::size(kNumbers))]);
      break;
    }
    default:  // a stray structural byte
      line.insert(line.begin() + static_cast<std::ptrdiff_t>(
                                     rng.below(line.size() + 1)),
                  kBytes[rng.below(sizeof kBytes)]);
  }
}

/// "" if parse_jsonl and the oracle agree on `line`.
std::string parser_disagreement(const std::string& line) {
  obs::Event got, want;
  std::string got_error = "(none)", want_error = "(none)";
  const bool got_ok = obs::parse_jsonl(line, &got, &got_error);
  const bool want_ok =
      test_support::oracle_parse_jsonl(line, &want, &want_error);
  if (got_ok != want_ok) return "verdicts differ";
  if (!got_ok) {
    return got_error == want_error
               ? ""
               : "errors differ: '" + got_error + "' vs '" + want_error + "'";
  }
  return got == want ? "" : "events differ";
}

TEST(JsonlFuzz, ParserAgreesWithTheOracle) {
  std::vector<std::string> corpus = split_lines(bench_sweep_text());
  for (const std::string& line : split_lines(synthesized_report_text())) {
    corpus.push_back(line);
  }
  ASSERT_GT(corpus.size(), 60u);
  util::Rng rng(20260501);
  std::size_t accepted = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::string line = corpus[rng.below(corpus.size())];
    const std::uint64_t rounds = 1 + rng.below(3);
    for (std::uint64_t r = 0; r < rounds; ++r) mutate(rng, line);
    const std::string diff = parser_disagreement(line);
    ASSERT_EQ(diff, "") << "iteration " << iter << ": " << line;
    obs::Event scratch;
    accepted += obs::parse_jsonl(line, &scratch) ? 1u : 0u;
  }
  // Both verdicts must be well represented, or the differential is idle.
  EXPECT_GT(accepted, 2000u);
  EXPECT_LT(accepted, 18000u);
}

TEST(JsonlFuzz, ColumnarLoaderAgreesWithTheRowLoader) {
  const std::vector<std::vector<std::string>> bases = {
      split_lines(bench_sweep_text()),
      split_lines(synthesized_report_text())};
  util::Rng rng(20260502);
  std::size_t loaded = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    std::vector<std::string> lines = bases[rng.below(bases.size())];
    const std::uint64_t edits = 1 + rng.below(3);
    for (std::uint64_t e = 0; e < edits; ++e) {
      const std::size_t at = rng.below(lines.size());
      switch (rng.below(8)) {
        case 0:  // reorder two lines
          std::swap(lines[at], lines[rng.below(lines.size())]);
          break;
        case 1:  // repeat a line
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                       lines[rng.below(lines.size())]);
          break;
        case 2:  // drop a line
          if (lines.size() > 1) {
            lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
          }
          break;
        default:
          mutate(rng, lines[at]);
      }
    }
    const std::string text = join_lines(lines);
    const std::string diff = test_support::loader_disagreement(text);
    ASSERT_EQ(diff, "") << "iteration " << iter << ":\n" << text;
    loaded += test_support::load_columns(text).ok ? 1u : 0u;
  }
  EXPECT_GT(loaded, 100u);
  EXPECT_LT(loaded, 1400u);
}

}  // namespace
