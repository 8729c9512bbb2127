#include "common/flags.h"

#include "common/string_util.h"
#include "engine/csv.h"
#include "kernels/kernels.h"

namespace ssjoin {

Args ParseArgs(int argc, char** argv, bool with_command) {
  Args args;
  int first = 1;
  if (with_command) {
    if (argc >= 2 && argv[1][0] != '-') args.command = argv[1];
    first = 2;
  }
  for (int i = first; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) continue;
    flag = flag.substr(2);
    // --flag=value binds tighter than the lookahead form, so
    // "--k-default=abc" reaches the checked parser instead of becoming a
    // flag named "k-default=abc" that silently falls back to the default.
    if (size_t eq = flag.find('='); eq != std::string::npos) {
      args.flags[flag.substr(0, eq)] = flag.substr(eq + 1);
      continue;
    }
    if (i + 1 < argc && argv[i + 1][0] != '-') {
      args.flags[flag] = argv[++i];
    } else {
      args.flags[flag] = "true";
    }
  }
  return args;
}

Result<size_t> SizeFlag(const Args& args, const std::string& name,
                        size_t fallback) {
  auto it = args.flags.find(name);
  if (it == args.flags.end()) return fallback;
  Result<uint64_t> v = ParseUint64(it->second);
  if (!v.ok()) {
    return Status::Invalid("--" + name + ": " + v.status().message());
  }
  return static_cast<size_t>(*v);
}

Result<double> DoubleFlag(const Args& args, const std::string& name,
                          double fallback) {
  auto it = args.flags.find(name);
  if (it == args.flags.end()) return fallback;
  Result<double> v = ParseDouble(it->second);
  if (!v.ok()) {
    return Status::Invalid("--" + name + ": " + v.status().message());
  }
  return *v;
}

Status ApplyKernelFlag(const Args& args) {
  SSJOIN_RETURN_NOT_OK(kernels::InitFromEnv());
  auto it = args.flags.find("kernel");
  if (it == args.flags.end()) return Status::OK();
  SSJOIN_ASSIGN_OR_RETURN(kernels::Tier tier, kernels::ParseTier(it->second));
  return kernels::SetTier(tier);
}

Result<index::MatchOptions> MatchFlags(const Args& args) {
  index::MatchOptions match;
  SSJOIN_ASSIGN_OR_RETURN(match.alpha, DoubleFlag(args, "alpha", 0.5));
  if (args.flags.count("qgrams") > 0) {
    match.word_tokens = false;
    SSJOIN_ASSIGN_OR_RETURN(match.q, SizeFlag(args, "qgrams", 3));
  }
  SSJOIN_RETURN_NOT_OK(match.Validate());
  return match;
}

Result<std::vector<std::string>> ReadCsvColumn(const std::string& path,
                                               const std::string& col) {
  SSJOIN_ASSIGN_OR_RETURN(engine::Table table, engine::ReadCsvFile(path));
  SSJOIN_ASSIGN_OR_RETURN(size_t c, table.schema().FieldIndex(col));
  std::vector<std::string> out;
  out.reserve(table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    out.push_back(table.GetValue(c, r).ToString());
  }
  return out;
}

Result<std::vector<std::pair<uint64_t, std::string>>> ReadReferenceRecords(
    const std::string& path, const std::string& col) {
  SSJOIN_ASSIGN_OR_RETURN(std::vector<std::string> values, ReadCsvColumn(path, col));
  std::vector<std::pair<uint64_t, std::string>> records;
  records.reserve(values.size());
  for (size_t r = 0; r < values.size(); ++r) records.emplace_back(r, std::move(values[r]));
  return records;
}

}  // namespace ssjoin
