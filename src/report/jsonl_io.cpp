#include "report/jsonl_io.hpp"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <fstream>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign/provenance.hpp"
#include "obs/event.hpp"
#include "report/binary_io.hpp"
#include "util/check.hpp"

namespace cadapt::report {

namespace {

/// Folds well-formed report lines, in stream order, into a store.
class StoreLoader {
 public:
  /// Take one non-empty line. Returns false (with `error` set) if it is
  /// malformed; throws util::ParseError if it is well-formed but not
  /// acceptable at this point of a report.
  bool take(std::string_view line, std::size_t line_no, std::string& error);

  /// The finished store: cells in ascending index order, then the fit
  /// rows interned after every cell token (from_report's order).
  CellStore finish();

 private:
  enum class CellLine : std::uint8_t { kNotACell, kTaken, kMalformed };
  /// Decode a line led by "type":"sweep_cell" straight into the columns.
  CellLine take_cell(std::string_view line, std::size_t line_no,
                     std::string& error);
  void append(const campaign::CellResult& cell);

  bool have_header_ = false;
  bool ascending_ = true;
  CellStore store_;
  std::vector<campaign::FitResult> fits_;
  campaign::CellResult cell_;  // decode scratch, capacity reused
  campaign::CellDecoder decoder_;
  obs::Event event_;
};

StoreLoader::CellLine StoreLoader::take_cell(std::string_view line,
                                             std::size_t line_no,
                                             std::string& error) {
  obs::FlatScanner scan(line);
  std::string_view key;
  obs::ScalarView value;
  const auto is_cell_type = [&value] {
    return value.kind == obs::ScalarView::Kind::kStr &&
           value.str == "sweep_cell";
  };
  if (!scan.next(key, value) || key != "type" || !is_cell_type()) {
    return CellLine::kNotACell;
  }
  decoder_.begin(cell_, line_no);
  while (scan.next(key, value)) {
    if (key != "type") {
      decoder_.field(key, value);
    } else if (!is_cell_type()) {
      return CellLine::kNotACell;  // a later "type" renames the line
    }
  }
  if (scan.error() != nullptr) {
    error = scan.error();
    return CellLine::kMalformed;
  }
  decoder_.finish();
  append(cell_);
  return CellLine::kTaken;
}

bool StoreLoader::take(std::string_view line, std::size_t line_no,
                       std::string& error) {
  if (have_header_) {
    switch (take_cell(line, line_no, error)) {
      case CellLine::kTaken: return true;
      case CellLine::kMalformed: return false;
      case CellLine::kNotACell: break;
    }
  }
  // Everything else (header, env and fit lines, and any cell line not
  // led by its type) takes the Event route.
  if (!obs::parse_jsonl(line, &event_, &error)) return false;
  if (!have_header_) {
    store_ = CellStore::from_report(
        campaign::report_header_from_event(event_, line_no));
    have_header_ = true;
  } else if (event_.type == "sweep_env") {
    store_.env = campaign::provenance_from_event(event_);
  } else if (event_.type == "sweep_cell") {
    append(campaign::cell_from_event(event_, line_no));
  } else if (event_.type == "sweep_fit") {
    fits_.push_back(campaign::fit_from_event(event_));
  } else {
    throw util::ParseError(
        "sweep report: unexpected line type '" + event_.type + "'", line_no);
  }
  return true;
}

void StoreLoader::append(const campaign::CellResult& cell) {
  if (store_.cell_count() != 0 && cell.index <= store_.index.back()) {
    ascending_ = false;
  }
  store_.append(cell);
}

CellStore StoreLoader::finish() {
  if (!have_header_) throw util::ParseError("sweep report: empty stream");
  if (!ascending_) {
    // Sort row references with load_report's comparator: std::sort's
    // moves depend only on the comparisons, so equal indexes land in the
    // same order as the row loader's. Re-appending in that order interns
    // the dictionaries in sorted first-appearance order.
    struct Ref {
      std::uint64_t index;
      std::size_t row;
    };
    std::vector<Ref> order;
    order.reserve(store_.cell_count());
    for (std::size_t row = 0; row < store_.cell_count(); ++row) {
      order.push_back({store_.index[row], row});
    }
    std::sort(order.begin(), order.end(),
              [](const Ref& a, const Ref& b) { return a.index < b.index; });
    CellStore sorted = CellStore::from_report(store_.header());
    sorted.reserve(store_.cell_count(), store_.samples.size());
    for (const Ref& ref : order) {
      store_.cell(ref.row, cell_);
      sorted.append(cell_);
    }
    store_ = std::move(sorted);
  }
  store_.fits.reserve(fits_.size());
  for (const campaign::FitResult& fit : fits_) {
    FitRow row;
    row.algo_id = store_.algo_dict.intern(fit.algo);
    row.profile_id = store_.profile_dict.intern(fit.profile);
    row.exponent = fit.exponent;
    row.scale = fit.scale;
    row.r2 = fit.r2;
    row.expected = fit.expected;
    store_.fits.push_back(row);
  }
  return std::move(store_);
}

}  // namespace

CellStore load_store_jsonl(std::istream& is) {
  StoreLoader loader;
  std::string line;
  std::string error;
  std::size_t line_no = 0;
  // A malformed line that may yet turn out to be the torn final one.
  std::string torn_error;
  std::size_t torn_line = 0;
  // The first semantic error; later lines are then only syntax-checked,
  // because a malformed line further on takes precedence.
  std::exception_ptr deferred;
  obs::Event scratch;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (torn_line != 0) throw util::ParseError(torn_error, torn_line);
    bool ok = true;
    if (deferred) {
      ok = obs::parse_jsonl(line, &scratch, &error);
    } else {
      try {
        ok = loader.take(line, line_no, error);
      } catch (const util::ParseError&) {
        deferred = std::current_exception();
      }
    }
    if (!ok) {
      torn_error =
          "sweep report line " + std::to_string(line_no) + ": " + error;
      torn_line = line_no;
    }
  }
  if (deferred) std::rethrow_exception(deferred);
  return loader.finish();
}

CellStore load_store_any(const std::string& path) {
  if (is_binary_report_file(path)) return load_store_file(path);
  std::ifstream is(path);
  if (!is) throw util::IoError("cannot open report: " + path);
  return load_store_jsonl(is);
}

}  // namespace cadapt::report
