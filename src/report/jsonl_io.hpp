// JSONL reports read straight into columns (docs/REPORT.md).
//
// load_store_jsonl streams a report line by line: sweep_cell lines go
// through obs::FlatScanner and campaign::CellDecoder into the store's
// columns, with no obs::Event and no CellResult per cell kept alive, so
// peak memory is the store plus one line. The result equals
// CellStore::from_report(campaign::load_report(...)) on every input,
// errors included:
//
//   - the torn-final-line rule of robust::load_jsonl_tolerant (a
//     malformed last line is dropped; any other malformed line throws a
//     line-numbered util::ParseError);
//   - the first valid line must be a version-1 sweep_report, and an
//     unknown line type throws;
//   - every line is syntax-checked before the first semantic error is
//     thrown, as the row loader parses the whole stream before it
//     interprets any line;
//   - cells come out in ascending index order (out-of-order input is
//     sorted with the row loader's comparator, and dictionaries are then
//     interned in sorted order, as from_report does).
#pragma once

#include <iosfwd>
#include <string>

#include "report/cell_store.hpp"

namespace cadapt::report {

/// Load a JSONL report into a columnar store. Throws util::ParseError on
/// malformed content.
CellStore load_store_jsonl(std::istream& is);

/// Load either encoding from `path` — binary if it starts with the
/// binary magic (binary_io.hpp), JSONL otherwise. Throws util::IoError
/// if unreadable.
CellStore load_store_any(const std::string& path);

}  // namespace cadapt::report
