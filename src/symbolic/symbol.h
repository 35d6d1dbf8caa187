// Interned symbols shared by the symbolic algebra and the analysis passes.
//
// A symbol stands for an integer-valued program entity: a scalar variable, a
// loop index, an array (when used as the base of an ArrayElem expression), or
// a free parameter such as a problem size N.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace sspar::sym {

using SymbolId = uint32_t;
inline constexpr SymbolId kInvalidSymbol = ~0u;

class SymbolTable {
 public:
  SymbolId intern(std::string_view name);

  // Creates a fresh symbol with a unique name derived from `base`.
  SymbolId fresh(std::string_view base);

  const std::string& name(SymbolId id) const;
  size_t size() const { return names_.size(); }

  // Returns kInvalidSymbol if not present.
  SymbolId lookup(std::string_view name) const;

 private:
  // Appends `name`, which must not be present yet.
  SymbolId add(std::string_view name);

  // Transparent hash: lets find() take a string_view without materializing a
  // temporary std::string per lookup.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, SymbolId, StringHash, std::equal_to<>> index_;
  // First ".<n>" suffix fresh() should try per base name. Suffixes are only
  // ever consumed (the index never shrinks), so scanning forward from the
  // cached point produces the same names as scanning from zero — without the
  // quadratic re-probing when one base ("i") is declared hundreds of times.
  std::unordered_map<std::string, int, StringHash, std::equal_to<>> fresh_suffix_;
};

}  // namespace sspar::sym
