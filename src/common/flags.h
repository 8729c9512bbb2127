#ifndef SSJOIN_COMMON_FLAGS_H_
#define SSJOIN_COMMON_FLAGS_H_

#include <cstddef>
#include <map>
#include <string>

#include "common/result.h"

namespace ssjoin {

/// The command line of an ssjoin tool: an optional leading command word,
/// then `--name value`, `--name=value` or a bare `--name` (= "true").
/// Arguments that are not flags are skipped.
struct Args {
  std::string command;
  std::map<std::string, std::string> flags;
};

/// `with_command`: argv[1], when it is not a flag, is the command word.
Args ParseArgs(int argc, char** argv, bool with_command);

/// Checked flag accessors: absent flags fall back, present flags must parse
/// completely (`--cache=abc` and `--threads -1` are loud errors, not 0 or a
/// wrapped size_t).
Result<size_t> SizeFlag(const Args& args, const std::string& name,
                        size_t fallback);
Result<double> DoubleFlag(const Args& args, const std::string& name,
                          double fallback);

}  // namespace ssjoin

#endif  // SSJOIN_COMMON_FLAGS_H_
