#ifndef SSJOIN_COMMON_FLAGS_H_
#define SSJOIN_COMMON_FLAGS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "index/manifest.h"

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
/// completely (`--k-default=abc` and `--threads -1` are loud errors, not 0
/// or a wrapped size_t).
Result<size_t> SizeFlag(const Args& args, const std::string& name,
                        size_t fallback);
Result<double> DoubleFlag(const Args& args, const std::string& name,
                          double fallback);

/// \name Tool startup steps shared by ssjoin_cli and ssjoin_served
/// @{

/// --kernel scalar|gallop|simd|auto, else the SSJOIN_KERNEL env var: pins
/// the intersection kernel tier of the process (default auto). Unknown
/// names fail loudly, like --algorithm does; the flag beats the env var.
Status ApplyKernelFlag(const Args& args);

/// The lookup index's match options from --alpha A (default 0.5) and
/// --qgrams Q (q-gram tokens instead of word tokens), validated.
Result<index::MatchOptions> MatchFlags(const Args& args);

/// Column `col` of the CSV file `path`, one string per row.
Result<std::vector<std::string>> ReadCsvColumn(const std::string& path,
                                               const std::string& col);

/// ReadCsvColumn as (row number, value) records — the --reference FILE
/// --col COL load.
Result<std::vector<std::pair<uint64_t, std::string>>> ReadReferenceRecords(
    const std::string& path, const std::string& col);
/// @}

}  // namespace ssjoin

#endif  // SSJOIN_COMMON_FLAGS_H_
