#include "nn/serialize.h"

#include <cstdio>
#include <memory>

namespace diffode::nn {
namespace {

constexpr std::uint64_t kMagic = 0x4449464f44453031ull;  // "DIFODE01"

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool WriteU64(std::FILE* f, std::uint64_t v) {
  return std::fwrite(&v, sizeof(v), 1, f) == 1;
}

bool ReadU64(std::FILE* f, std::uint64_t* v) {
  return std::fread(v, sizeof(*v), 1, f) == 1;
}

}  // namespace

bool SaveParams(const std::vector<ag::Var>& params, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return false;
  if (!WriteU64(f.get(), kMagic)) return false;
  if (!WriteU64(f.get(), params.size())) return false;
  for (const auto& p : params) {
    const Tensor& t = p.value();
    if (!WriteU64(f.get(), static_cast<std::uint64_t>(t.rank()))) return false;
    for (Index i = 0; i < t.rank(); ++i)
      if (!WriteU64(f.get(), static_cast<std::uint64_t>(t.shape().dim(i))))
        return false;
    const std::size_t n = static_cast<std::size_t>(t.numel());
    if (std::fwrite(t.data(), sizeof(Scalar), n, f.get()) != n) return false;
  }
  return true;
}

bool LoadParams(std::vector<ag::Var>* params, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return false;
  std::uint64_t magic = 0, count = 0;
  if (!ReadU64(f.get(), &magic) || magic != kMagic) return false;
  if (!ReadU64(f.get(), &count) || count != params->size()) return false;
  // Read everything into staging tensors first so a mismatch midway leaves
  // the model unchanged.
  std::vector<Tensor> staged;
  staged.reserve(params->size());
  for (const auto& p : *params) {
    // Each size field is compared with the parameter as soon as it is read,
    // so a corrupt header never sizes an allocation.
    const Shape& shape = p.value().shape();
    std::uint64_t rank = 0;
    if (!ReadU64(f.get(), &rank) ||
        rank != static_cast<std::uint64_t>(shape.rank()))
      return false;
    for (Index i = 0; i < shape.rank(); ++i) {
      std::uint64_t d = 0;
      if (!ReadU64(f.get(), &d) ||
          d != static_cast<std::uint64_t>(shape.dim(i)))
        return false;
    }
    Tensor t(shape);
    const std::size_t n = static_cast<std::size_t>(t.numel());
    if (std::fread(t.data(), sizeof(Scalar), n, f.get()) != n) return false;
    staged.push_back(std::move(t));
  }
  for (std::size_t i = 0; i < params->size(); ++i)
    (*params)[i].mutable_value() = std::move(staged[i]);
  return true;
}

}  // namespace diffode::nn
