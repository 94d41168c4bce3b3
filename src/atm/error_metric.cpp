#include "atm/error_metric.hpp"

namespace atm {

namespace {
template <typename T>
std::span<const T> as_typed(std::span<const std::uint8_t> bytes) noexcept {
  return {reinterpret_cast<const T*>(bytes.data()), bytes.size() / sizeof(T)};
}
}  // namespace

void ChebyshevAccumulator::add_bytes(rt::ElemType elem,
                                     std::span<const std::uint8_t> correct,
                                     std::span<const std::uint8_t> approx) noexcept {
  switch (elem) {
    case rt::ElemType::F32:
      add(as_typed<float>(correct), as_typed<float>(approx));
      return;
    case rt::ElemType::F64:
      add(as_typed<double>(correct), as_typed<double>(approx));
      return;
    case rt::ElemType::I32:
      add(as_typed<std::int32_t>(correct), as_typed<std::int32_t>(approx));
      return;
    case rt::ElemType::U32:
      add(as_typed<std::uint32_t>(correct), as_typed<std::uint32_t>(approx));
      return;
    case rt::ElemType::I64:
      add(as_typed<std::int64_t>(correct), as_typed<std::int64_t>(approx));
      return;
    case rt::ElemType::U64:
      add(as_typed<std::uint64_t>(correct), as_typed<std::uint64_t>(approx));
      return;
    case rt::ElemType::I16:
      add(as_typed<std::int16_t>(correct), as_typed<std::int16_t>(approx));
      return;
    case rt::ElemType::U16:
      add(as_typed<std::uint16_t>(correct), as_typed<std::uint16_t>(approx));
      return;
    case rt::ElemType::I8:
      add(as_typed<std::int8_t>(correct), as_typed<std::int8_t>(approx));
      return;
    case rt::ElemType::U8:
      add(as_typed<std::uint8_t>(correct), as_typed<std::uint8_t>(approx));
      return;
  }
}

double task_output_tau(const rt::Task& task, const store::MemoEntry& stored) {
  ChebyshevAccumulator acc;
  std::size_t i = 0;
  for (const auto& a : task.accesses) {
    if (!a.is_output()) continue;
    if (i >= stored.regions.size()) break;
    acc.add_bytes(a.elem, a.const_bytes(), stored.regions[i].data);
    ++i;
  }
  return acc.value();
}

}  // namespace atm
