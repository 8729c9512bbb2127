#include "core/set_store.h"

#include "common/string_util.h"

namespace ssjoin::core {

Status SetStore::CheckCapacity(size_t groups, size_t elements) {
  constexpr size_t kMax = UINT32_MAX;
  if (groups > kMax) {
    return Status::Invalid(StringPrintf(
        "SetStore: %zu groups exceed the uint32 CSR group capacity", groups));
  }
  if (elements > kMax) {
    return Status::Invalid(StringPrintf(
        "SetStore: %zu total elements exceed the uint32 CSR offset capacity",
        elements));
  }
  return Status::OK();
}

Result<SetStore> SetStore::FromParts(std::vector<uint32_t> offsets,
                                     std::vector<text::TokenId> token_ids) {
  if (offsets.empty()) {
    return Status::Invalid("SetStore: offsets array must have >= 1 entry");
  }
  if (offsets.front() != 0) {
    return Status::Invalid("SetStore: offsets must start at 0");
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return Status::Invalid(StringPrintf(
          "SetStore: offsets not monotone at group %zu (%u < %u)", i - 1,
          offsets[i], offsets[i - 1]));
    }
  }
  if (offsets.back() != token_ids.size()) {
    return Status::Invalid(StringPrintf(
        "SetStore: offsets end at %u but token_ids has %zu entries",
        offsets.back(), token_ids.size()));
  }
  SetStore store;
  store.offsets_ = std::move(offsets);
  store.token_ids_ = std::move(token_ids);
  return store;
}

}  // namespace ssjoin::core
