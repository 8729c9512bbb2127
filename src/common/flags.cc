#include "common/flags.h"

#include "common/string_util.h"

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
    // --flag=value binds tighter than the lookahead form, so "--cache=abc"
    // reaches the checked parser instead of becoming a flag named
    // "cache=abc" that silently falls back to the default.
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

}  // namespace ssjoin
