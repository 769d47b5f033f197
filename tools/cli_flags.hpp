// The cadapt command table: every command's flags, declared once.
//
// A command lists util::FlagSpec rows; shared groups (the regular shape,
// the mc/trace cell, the robustness flags, the serve client) are declared
// once and listed by every command that takes them. Parsing, defaults,
// validation, retired-flag errors, the usage text and `cadapt help <cmd>`
// are all generated from these tables: adding a flag is adding one row.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "util/args.hpp"

namespace cadapt::cli {

struct Command {
  std::string name;      ///< "sweep", or "report merge" for a subcommand
  std::string topic;     ///< the `cadapt help` page that documents it
  std::string synopsis;  ///< its positional arguments, e.g. "<manifest>"
  std::size_t min_args, max_args;  ///< positional count bounds
  std::string summary;             ///< one line for the command list
  std::vector<util::FlagSpec> flags = {};
};

/// Every command, in the order `cadapt help` lists them.
const std::vector<Command>& commands();

/// The command that argv[1..] names (`report` takes a subcommand word).
/// Throws UsageError for a missing or unknown command.
const Command& find_command(const std::vector<std::string>& words);

/// Parse the words after the command against its table and check the
/// positional count. Throws UsageError naming `cadapt help <topic>`.
util::ArgParser parse_args(const Command& command,
                           const std::vector<std::string>& words);

/// `cadapt help <name>`: the page's model prose, then each command on it
/// with its flag table; "" is the command list. Throws UsageError for an
/// unknown name.
void print_help(std::ostream& os, const std::string& name);

}  // namespace cadapt::cli
