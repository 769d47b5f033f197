// report/cell_store + report/binary_io: the columnar report engine
// (docs/REPORT.md). The load-bearing contract is byte-identity: for any
// valid Report, building a CellStore, saving it to the binary container,
// loading it back, and exporting JSONL must produce the EXACT bytes
// campaign::write_report emits — across random cell populations, every
// field variant (capped, policy, truncation, empty samples), shard
// merges, and a 1e6-cell synthetic campaign. The container itself must
// reject corruption loudly, naming the wounded section.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/report.hpp"
#include "obs/event.hpp"
#include "report/binary_io.hpp"
#include "report/cell_store.hpp"
#include "report/jsonl_io.hpp"
#include "report_load_util.hpp"
#include "robust/cancel.hpp"
#include "robust/io.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace {

using namespace cadapt;
using campaign::CellResult;
using campaign::Report;
using report::CellStore;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

void write_raw(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary);
  os << content;
}

// ---- random population ---------------------------------------------

/// One random but VALID cell: samples.size() == completed, counts sum
/// to trials, capped <= incomplete. Hits every conditional field with
/// reasonable probability: policy (emitted only when non-empty), capped
/// (only when nonzero), sort vs ratio cells, empty-samples cells.
CellResult random_cell(util::Rng& rng, std::uint64_t index) {
  static const char* kAlgos[] = {"8:4:1", "4:2:1", "7:4:1"};
  static const char* kProfiles[] = {"worst", "shuffled", "iid:geometric:6"};
  static const char* kSorts[] = {"adaptive", "funnel", "merge2"};
  static const char* kPolicies[] = {"lru", "clock", "arc"};
  CellResult cell;
  cell.index = index;
  const bool sort_cell = rng.bernoulli(0.3);
  if (sort_cell) {
    cell.sort = kSorts[rng.below(3)];
    if (rng.bernoulli(0.5)) cell.policy = kPolicies[rng.below(3)];
  } else {
    cell.algo = kAlgos[rng.below(3)];
  }
  cell.profile = kProfiles[rng.below(3)];
  cell.k = static_cast<unsigned>(1 + rng.below(8));
  cell.n = std::uint64_t{1} << cell.k;
  cell.trials = 1 + rng.below(6);
  // Partition trials into completed/incomplete/failed; allow the
  // completed == 0 (empty samples) corner.
  cell.incomplete = rng.below(cell.trials + 1);
  cell.failed = rng.below(cell.trials - cell.incomplete + 1);
  cell.completed = cell.trials - cell.incomplete - cell.failed;
  cell.capped = cell.incomplete == 0 ? 0 : rng.below(cell.incomplete + 1);
  for (std::uint64_t t = 0; t < cell.completed; ++t) {
    cell.samples.push_back(0.5 + 4.0 * rng.uniform01());
  }
  double sum = 0;
  for (const double s : cell.samples) sum += s;
  cell.mean = cell.samples.empty()
                  ? 0
                  : sum / static_cast<double>(cell.samples.size());
  cell.ci_lo = cell.mean * 0.9;
  cell.ci_hi = cell.mean * 1.1;
  cell.q50 = cell.mean;
  cell.q90 = cell.mean * 1.05;
  cell.q95 = cell.mean * 1.08;
  cell.boxes_mean = static_cast<double>(cell.n) * (1.0 + rng.uniform01());
  cell.wall_ns = rng.below(1000000);
  return cell;
}

Report random_report(std::uint64_t seed, std::uint64_t cells,
                     bool truncated = false) {
  util::Rng rng(seed);
  Report report;
  report.name = "columnar_prop";
  report.config_hash = seed;
  report.cells_total = cells;
  report.truncated = truncated;
  if (truncated) report.truncate_reason = robust::CancelReason::kDeadline;
  report.wall_ms = rng.below(100000);
  report.env.version = "test 1.0";
  report.env.git_hash = "deadbeef";
  report.env.build_type = "Release";
  report.env.compiler = "gcc 12";
  report.env.cxx_flags = "-O3";
  for (std::uint64_t i = 0; i < cells; ++i) {
    report.cells.push_back(random_cell(rng, i));
  }
  report.fits = campaign::compute_fits(report);
  return report;
}

std::string render_jsonl(const Report& report) {
  std::ostringstream os;
  campaign::write_report(os, report);
  return os.str();
}

std::string export_jsonl(const CellStore& store) {
  std::ostringstream os;
  store.export_report_stream(os);
  return os.str();
}

// ---- round-trip properties -----------------------------------------

TEST(CellStore, FromReportExportsIdenticalBytes) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    const Report report = random_report(seed, 40, seed % 2 == 0);
    const CellStore store = CellStore::from_report(report);
    EXPECT_EQ(export_jsonl(store), render_jsonl(report)) << "seed " << seed;
  }
}

TEST(CellStore, ToReportRoundTripsEveryField) {
  const Report report = random_report(11, 30, true);
  const Report back = CellStore::from_report(report).to_report();
  ASSERT_EQ(back.cells.size(), report.cells.size());
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    EXPECT_EQ(back.cells[i], report.cells[i]) << "cell " << i;
  }
  EXPECT_EQ(back.fits, report.fits);
  EXPECT_EQ(back.name, report.name);
  EXPECT_EQ(back.truncated, report.truncated);
  EXPECT_EQ(back.truncate_reason, report.truncate_reason);
  EXPECT_EQ(back.wall_ms, report.wall_ms);
}

TEST(CellStore, BinaryFileRoundTripsExactBytes) {
  const Report report = random_report(21, 50);
  const std::string bin = temp_path("columnar_rt.bin");
  report::save_store_file(bin, CellStore::from_report(report));
  EXPECT_TRUE(report::is_binary_report_file(bin));
  const CellStore loaded = report::load_store_file(bin);
  EXPECT_EQ(export_jsonl(loaded), render_jsonl(report));
  std::remove(bin.c_str());
}

TEST(CellStore, ExportFileMatchesWriteReportFile) {
  const Report report = random_report(31, 25);
  const std::string legacy = temp_path("columnar_legacy.json");
  const std::string exported = temp_path("columnar_export.json");
  campaign::write_report_file(legacy, report);
  CellStore::from_report(report).export_report_file(exported);
  EXPECT_EQ(read_file(exported), read_file(legacy));
  std::remove(legacy.c_str());
  std::remove(exported.c_str());
}

TEST(CellStore, AppendEnforcesSamplesInvariant) {
  CellStore store;
  CellResult cell;
  cell.trials = 2;
  cell.completed = 2;
  cell.samples = {1.0};  // one sample short
  EXPECT_THROW(store.append(cell), util::ParseError);
}

TEST(CellStore, DictionariesInternInFirstAppearanceOrder) {
  report::StringDict dict;
  EXPECT_EQ(dict.intern("b"), 0u);
  EXPECT_EQ(dict.intern("a"), 1u);
  EXPECT_EQ(dict.intern("b"), 0u);
  EXPECT_EQ(dict.find("a"), 1u);
  EXPECT_EQ(dict.find("missing"), report::StringDict::npos);
  EXPECT_EQ(dict.token(0), "b");
  EXPECT_EQ(dict.size(), 2u);
}

// ---- merge equivalence ---------------------------------------------

TEST(CellStoreMerge, MatchesRowMergeByteForByte) {
  const Report full = random_report(41, 60);
  // Round-robin shards, like the sweep planner.
  const std::size_t kShards = 3;
  std::vector<CellStore> columnar_parts;
  std::vector<Report> row_parts;
  for (std::size_t s = 0; s < kShards; ++s) {
    Report shard;
    shard.name = full.name;
    shard.config_hash = full.config_hash;
    shard.cells_total = full.cells_total;
    shard.shards = kShards;
    shard.shard_index = s;
    shard.env = full.env;
    for (const CellResult& cell : full.cells) {
      if (cell.index % kShards == s) shard.cells.push_back(cell);
    }
    columnar_parts.push_back(CellStore::from_report(shard));
    row_parts.push_back(std::move(shard));
  }
  const CellStore merged_columnar =
      CellStore::merge(std::move(columnar_parts));
  const Report merged_rows = campaign::merge_reports(std::move(row_parts));
  EXPECT_EQ(export_jsonl(merged_columnar), render_jsonl(merged_rows));
}

TEST(CellStoreMerge, RejectsDuplicateAndForeignShards) {
  const Report report = random_report(51, 10);
  {
    std::vector<CellStore> parts;
    parts.push_back(CellStore::from_report(report));
    parts.push_back(CellStore::from_report(report));
    EXPECT_THROW(CellStore::merge(std::move(parts)), util::ParseError);
  }
  {
    Report other = random_report(52, 10);
    other.config_hash ^= 1;
    std::vector<CellStore> parts;
    parts.push_back(CellStore::from_report(report));
    parts.push_back(CellStore::from_report(other));
    EXPECT_THROW(CellStore::merge(std::move(parts)), util::ParseError);
  }
  EXPECT_THROW(CellStore::merge({}), util::ParseError);
}

TEST(CellStoreMerge, RejectsNonCoveringShardSet) {
  Report shard = random_report(61, 10);
  shard.cells_total = 20;  // claims a grid twice as large
  std::vector<CellStore> parts;
  parts.push_back(CellStore::from_report(shard));
  try {
    CellStore::merge(std::move(parts));
    FAIL() << "expected ParseError";
  } catch (const util::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("does not cover the grid"),
              std::string::npos);
  }
}

TEST(CellStoreMerge, RejectsCellsOutsideTheGrid) {
  // Two shards of a 2-cell grid holding cells 0 and 7: the count matches
  // the grid, but cell 7 does not exist and cell 1 is missing.
  const Report full = random_report(62, 2);
  Report a = full, b = full;
  a.cells = {full.cells[0]};
  b.cells = {full.cells[1]};
  b.cells[0].index = 7;
  a.fits.clear();
  b.fits.clear();
  std::vector<CellStore> parts;
  parts.push_back(CellStore::from_report(a));
  parts.push_back(CellStore::from_report(b));
  try {
    CellStore::merge(std::move(parts));
    FAIL() << "merged a cell outside the grid";
  } catch (const util::ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cell 7"), std::string::npos) << what;
    EXPECT_NE(what.find("grid of 2"), std::string::npos) << what;
  }
}

// ---- the columnar JSONL loader -------------------------------------

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

/// Replace the first `from` in `line` (which must occur) with `to`.
std::string replaced(std::string line, const std::string& from,
                     const std::string& to) {
  const std::size_t at = line.find(from);
  EXPECT_NE(at, std::string::npos) << from << " in " << line;
  if (at != std::string::npos) line.replace(at, from.size(), to);
  return line;
}

/// Lines of a 12-cell report: [0] header, [1] env, [2..13] cells, fits.
std::vector<std::string> report_lines(std::uint64_t seed = 71) {
  return split_lines(render_jsonl(random_report(seed, 12)));
}

TEST(JsonlLoad, MatchesTheRowLoaderOnRandomReports) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    const Report report = random_report(seed, 50, seed % 2 == 0);
    const std::string text = render_jsonl(report);
    EXPECT_EQ(test_support::loader_disagreement(text), "") << "seed " << seed;
    const test_support::LoadOutcome columns = test_support::load_columns(text);
    ASSERT_TRUE(columns.ok) << columns.what;
    EXPECT_EQ(test_support::store_difference(
                  columns.store, CellStore::from_report(report)),
              "");
    EXPECT_EQ(export_jsonl(columns.store), text);
  }
}

/// Equivalence matrix: each case must load identically through both
/// loaders, or fail on both with the same message and line number.
TEST(JsonlLoad, EquivalenceMatrix) {
  struct Case {
    const char* name;
    std::string text;
    bool loads;
  };
  std::vector<Case> cases;
  const auto lines = report_lines();
  const auto with = [&](auto&& edit) {
    std::vector<std::string> copy = lines;
    edit(copy);
    return join_lines(copy);
  };

  cases.push_back({"out-of-order cells", with([](auto& l) {
                     std::reverse(l.begin() + 2, l.begin() + 14);
                   }),
                   true});
  cases.push_back({"duplicate indexes out of order", with([](auto& l) {
                     l.insert(l.begin() + 3, l[9]);
                     l.insert(l.begin() + 2, l[12]);
                   }),
                   true});
  cases.push_back({"torn final line", with([](auto& l) {
                     l.back().resize(l.back().size() / 2);
                   }),
                   true});
  cases.push_back({"torn final cell line", with([](auto& l) {
                     l.resize(14);
                     l.back().resize(40);
                   }),
                   true});
  cases.push_back({"malformed middle line", with([](auto& l) {
                     l[6].resize(l[6].size() / 2);
                   }),
                   false});
  cases.push_back({"unknown line type", with([](auto& l) {
                     l.insert(l.begin() + 5, R"({"type":"mystery","a":1})");
                   }),
                   false});
  cases.push_back({"duplicate keys: first wins", with([](auto& l) {
                     l[4] = replaced(l[4], "\"index\":2,",
                                     "\"index\":2,\"index\":3,\"k\":99,");
                     l[5].pop_back();
                     l[5] += ",\"mean\":7,\"samples\":\"\",\"algo\":\"x\"}";
                   }),
                   true});
  cases.push_back({"a trailing type renames a cell line", with([](auto& l) {
                     l[7].pop_back();
                     l[7] += ",\"type\":\"sweep_fit\"}";
                   }),
                   true});
  cases.push_back({"a second non-string type", with([](auto& l) {
                     l[7].pop_back();
                     l[7] += ",\"type\":5}";
                   }),
                   false});
  cases.push_back({"type not first", with([](auto& l) {
                     const std::string lead = "{\"type\":\"sweep_cell\",";
                     l[8] = "{" + l[8].substr(lead.size());
                     l[8].pop_back();
                     l[8] += ",\"type\":\"sweep_cell\"}";
                   }),
                   true});
  cases.push_back({"wrong-kind values", with([](auto& l) {
                     l[3] = replaced(l[3], "\"n\":", "\"n\":\"4\",\"x\":");
                     l[3] = replaced(l[3], "\"mean\":", "\"mean\":true,\"y\":");
                     l[3] = replaced(l[3], "\"algo\":", "\"algo\":-1,\"z\":");
                     l[3] = replaced(l[3], "\"wall_ns\":",
                                     "\"wall_ns\":-5,\"w\":");
                   }),
                   true});
  cases.push_back({"missing optional fields", with([](auto& l) {
                     for (std::size_t i = 2; i < 14; ++i) {
                       for (const char* key : {"\"capped\":", "\"policy\":",
                                               "\"mean\":"}) {
                         const std::size_t at = l[i].find(key);
                         if (at == std::string::npos) continue;
                         const std::size_t end = l[i].find(',', at);
                         l[i].erase(at, end - at + 1);
                       }
                     }
                   }),
                   true});
  cases.push_back({"samples/completed mismatch", with([](auto& l) {
                     l[9] = replaced(l[9], "\"samples\":\"",
                                     "\"samples\":\"1 ");
                   }),
                   false});
  cases.push_back({"malformed samples", with([](auto& l) {
                     l[9] = replaced(l[9], "\"samples\":\"",
                                     "\"samples\":\"x ");
                   }),
                   false});
  cases.push_back({"k above 2^32 - 1", with([](auto& l) {
                     l[10] = replaced(l[10], "\"k\":",
                                      "\"k\":4294967299,\"_\":");
                   }),
                   false});
  cases.push_back({"escapes in tokens", with([](auto& l) {
                     l[3] = replaced(l[3], "\"profile\":\"",
                                     R"("profile":"é\"é\\)");
                     l[4] = replaced(l[4], "\"profile\":\"",
                                     R"("profile":"é\"é\\)");
                   }),
                   true});
  cases.push_back({"CRLF line ends", with([](auto& l) {
                     for (std::string& line : l) line += '\r';
                   }),
                   true});
  cases.push_back({"blank lines", with([](auto& l) {
                     l.insert(l.begin() + 4, "");
                     l.insert(l.begin(), "");
                   }),
                   true});
  cases.push_back({"a semantic error, then a malformed middle line",
                   with([](auto& l) {
                     l[3] = replaced(l[3], "\"samples\":\"",
                                     "\"samples\":\"1 ");
                     l[8].resize(20);
                   }),
                   false});
  cases.push_back({"a semantic error, then a torn final line",
                   with([](auto& l) {
                     l[3] = replaced(l[3], "\"samples\":\"",
                                     "\"samples\":\"1 ");
                     l.back().resize(5);
                   }),
                   false});
  cases.push_back({"header not first", with([](auto& l) {
                     std::swap(l[0], l[1]);
                   }),
                   false});
  cases.push_back({"header after a torn-looking first line",
                   with([](auto& l) { l.insert(l.begin(), "{\"type\""); }),
                   false});
  cases.push_back({"unsupported version", with([](auto& l) {
                     l[0] = replaced(l[0], "\"version\":1", "\"version\":2");
                   }),
                   false});
  cases.push_back({"a second header", with([](auto& l) {
                     l.push_back(l[0]);
                   }),
                   false});
  cases.push_back({"empty stream", "", false});
  cases.push_back({"only a torn line", "{\"type\":\"sweep_re", false});

  for (const Case& c : cases) {
    EXPECT_EQ(test_support::loader_disagreement(c.text), "") << c.name;
    const test_support::LoadOutcome columns =
        test_support::load_columns(c.text);
    EXPECT_EQ(columns.ok, c.loads) << c.name << ": " << columns.what;
    if (columns.ok) {
      EXPECT_TRUE(std::is_sorted(columns.store.index.begin(),
                                 columns.store.index.end()))
          << c.name;
    }
  }
}

TEST(JsonlLoad, ErrorsCarryTheRowLoadersMessageAndLine) {
  auto lines = report_lines();
  lines[6].resize(10);
  const test_support::LoadOutcome malformed =
      test_support::load_columns(join_lines(lines));
  ASSERT_FALSE(malformed.ok);
  EXPECT_EQ(malformed.line, 7u);
  EXPECT_EQ(malformed.what.rfind("sweep report line 7: ", 0), 0u)
      << malformed.what;

  lines = report_lines();
  lines[10] = replaced(lines[10], "\"k\":", "\"k\":4294967299,\"_\":");
  const test_support::LoadOutcome big_k =
      test_support::load_columns(join_lines(lines));
  ASSERT_FALSE(big_k.ok);
  EXPECT_EQ(big_k.line, 11u);
  EXPECT_NE(big_k.what.find("k = 4294967299"), std::string::npos)
      << big_k.what;
}

TEST(JsonlLoad, LoadStoreAnySniffsTheEncoding) {
  const Report report = random_report(81, 20);
  const std::string json = temp_path("columnar_any.json");
  const std::string bin = temp_path("columnar_any.bin");
  campaign::write_report_file(json, report);
  report::save_store_file(bin, CellStore::from_report(report));
  EXPECT_EQ(export_jsonl(report::load_store_any(json)), render_jsonl(report));
  EXPECT_EQ(export_jsonl(report::load_store_any(bin)), render_jsonl(report));
  std::remove(json.c_str());
  std::remove(bin.c_str());
  EXPECT_THROW(report::load_store_any(json), util::IoError);
}

// ---- container corruption ------------------------------------------

struct SectionEntry {
  std::uint32_t id = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

/// Section ids -> names, mirroring the container spec in binary_io.hpp
/// (the implementation's table is internal on purpose; the test keeps
/// its own copy so a renumbering shows up as a failure here).
const char* section_name(std::uint32_t id) {
  switch (id) {
    case 1: return "HEADER";
    case 2: return "ENV";
    case 3: return "DICTS";
    case 4: return "CELLS";
    case 5: return "SAMPLES";
    case 6: return "FITS";
    default: return "?";
  }
}

/// Parse the container's section table (magic is 8 bytes, then u32
/// version, u32 section count, then 24-byte entries).
std::vector<SectionEntry> section_table(const std::string& bytes) {
  std::uint32_t count = 0;
  std::memcpy(&count, bytes.data() + 12, 4);
  std::vector<SectionEntry> table(count);
  for (std::uint32_t s = 0; s < count; ++s) {
    const char* entry = bytes.data() + 16 + s * 24;
    std::memcpy(&table[s].id, entry, 4);
    std::memcpy(&table[s].offset, entry + 8, 8);
    std::memcpy(&table[s].length, entry + 16, 8);
  }
  return table;
}

std::string expect_parse_error(const std::string& bytes) {
  try {
    report::load_store(bytes);
  } catch (const util::ParseError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected ParseError";
  return "";
}

TEST(BinaryContainer, RejectsFlippedByteNamingTheSection) {
  const Report report = random_report(71, 20);
  const std::string bin = temp_path("columnar_crc.bin");
  report::save_store_file(bin, CellStore::from_report(report));
  const std::string good = read_file(bin);
  std::remove(bin.c_str());

  for (const SectionEntry& section : section_table(good)) {
    if (section.length == 0) continue;
    std::string bad = good;
    bad[section.offset + section.length / 2] ^= 0x20;
    const std::string what = expect_parse_error(bad);
    EXPECT_NE(what.find("CRC mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find(section_name(section.id)), std::string::npos)
        << "corrupted section " << section.id << " but error was: " << what;
  }
}

TEST(BinaryContainer, RejectsTornTail) {
  const Report report = random_report(81, 20);
  const std::string bin = temp_path("columnar_torn.bin");
  report::save_store_file(bin, CellStore::from_report(report));
  const std::string good = read_file(bin);
  std::remove(bin.c_str());

  // A kill mid-write may leave any prefix; every truncation point must
  // be rejected as a ParseError (never a crash, never a silent partial
  // load). Probe a spread of prefixes including the empty file.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, std::size_t{15}, std::size_t{16},
        std::size_t{100}, good.size() / 2, good.size() - 1}) {
    const std::string what = expect_parse_error(good.substr(0, keep));
    EXPECT_FALSE(what.empty());
  }
  const std::string what = expect_parse_error(good.substr(0, good.size() - 1));
  EXPECT_NE(what.find("section"), std::string::npos) << what;
}

TEST(BinaryContainer, RejectsWrongMagicAndVersion) {
  EXPECT_NE(expect_parse_error("not a container at all")
                .find("missing magic"),
            std::string::npos);
  const Report report = random_report(91, 5);
  const std::string bin = temp_path("columnar_ver.bin");
  report::save_store_file(bin, CellStore::from_report(report));
  std::string bad = read_file(bin);
  std::remove(bin.c_str());
  bad[8] = 99;  // container version field
  EXPECT_NE(expect_parse_error(bad).find("container version"),
            std::string::npos);
}

TEST(BinaryContainer, IsBinaryReportFileSniffsMagic) {
  const std::string jsonl = temp_path("columnar_sniff.json");
  write_raw(jsonl, "{\"type\":\"sweep_report\",\"version\":1}\n");
  EXPECT_FALSE(report::is_binary_report_file(jsonl));
  EXPECT_FALSE(report::is_binary_report_file(jsonl + ".missing"));
  std::remove(jsonl.c_str());
}

// ---- 1e6-cell synthetic round trip ---------------------------------

TEST(CellStoreScale, MillionCellRoundTrip) {
  // Columns + arena must survive a full save/load cycle at campaign
  // scale without drift; comparing columns directly (not JSONL) keeps
  // the asan run of this test to seconds.
  report::ColumnarWriter writer;
  writer.store().name = "scale";
  writer.store().config_hash = 77;
  const std::uint64_t kCells = 1000000;
  writer.store().cells_total = kCells;
  writer.reserve(kCells, kCells);
  util::Rng rng(7);
  CellResult cell;
  for (std::uint64_t i = 0; i < kCells; ++i) {
    cell.index = i;
    cell.algo = (i % 2) != 0 ? "8:4:1" : "4:2:1";
    cell.profile = "worst";
    cell.sort.clear();
    cell.policy.clear();
    cell.k = static_cast<unsigned>(1 + i % 12);
    cell.n = std::uint64_t{1} << cell.k;
    cell.trials = 1;
    cell.completed = 1;
    cell.incomplete = cell.capped = cell.failed = 0;
    cell.samples.assign(1, rng.uniform01());
    cell.mean = cell.samples[0];
    cell.ci_lo = cell.mean;
    cell.ci_hi = cell.mean;
    cell.q50 = cell.q90 = cell.q95 = cell.mean;
    cell.boxes_mean = static_cast<double>(cell.n);
    cell.wall_ns = i;
    writer.append(cell);
  }
  const CellStore store = writer.take();
  const std::string bin = temp_path("columnar_million.bin");
  report::save_store_file(bin, store);
  const CellStore loaded = report::load_store_file(bin);
  std::remove(bin.c_str());
  ASSERT_EQ(loaded.cell_count(), kCells);
  EXPECT_EQ(loaded.index, store.index);
  EXPECT_EQ(loaded.algo_id, store.algo_id);
  EXPECT_EQ(loaded.profile_id, store.profile_id);
  EXPECT_EQ(loaded.k, store.k);
  EXPECT_EQ(loaded.n, store.n);
  EXPECT_EQ(loaded.completed, store.completed);
  EXPECT_EQ(loaded.mean, store.mean);
  EXPECT_EQ(loaded.samples_offset, store.samples_offset);
  EXPECT_EQ(loaded.samples, store.samples);
  EXPECT_EQ(loaded.wall_ns, store.wall_ns);
  EXPECT_EQ(loaded.algo_dict.tokens(), store.algo_dict.tokens());
}

// ---- satellite contracts -------------------------------------------

TEST(ToJsonl, BufferOverloadMatchesAndReusesCapacity) {
  obs::Event event{"demo"};
  event.u64("a", 1).f64("b", 2.5).str("c", "x\"y").flag("d", true);
  std::string buf = "stale content that should be replaced";
  obs::to_jsonl(event, buf);
  EXPECT_EQ(buf, obs::to_jsonl(event));
  const char* data = buf.data();
  obs::to_jsonl(event, buf);  // second encode reuses the allocation
  EXPECT_EQ(data, buf.data());
}

TEST(AtomicFileWriter, StreamsChunksAndCommitsAtomically) {
  const std::string path = temp_path("columnar_awf.txt");
  std::remove(path.c_str());
  {
    robust::AtomicFileWriter out(path, robust::system_io(), 8);
    out.write("0123456789");  // crosses the 8-byte chunk threshold
    out.write("abc");
    EXPECT_FALSE(std::ifstream(path).good()) << "visible before commit";
    out.commit();
  }
  EXPECT_EQ(read_file(path), "0123456789abc");
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(AtomicFileWriter, AbandonedWriterLeavesNoTrace) {
  const std::string path = temp_path("columnar_awf_abort.txt");
  std::remove(path.c_str());
  {
    robust::AtomicFileWriter out(path);
    out.write("half a report");
    // destroyed without commit()
  }
  EXPECT_FALSE(std::ifstream(path).good());
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
}

}  // namespace
