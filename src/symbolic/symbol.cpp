#include "symbolic/symbol.h"

#include <cassert>

namespace sspar::sym {

SymbolId SymbolTable::intern(std::string_view name) {
  auto it = index_.find(name);
  return it != index_.end() ? it->second : add(name);
}

SymbolId SymbolTable::fresh(std::string_view base) {
  if (!index_.contains(base)) return add(base);
  auto it = fresh_suffix_.find(base);
  if (it == fresh_suffix_.end()) {
    it = fresh_suffix_.emplace(std::string(base), 0).first;
  }
  int& n = it->second;
  std::string candidate;
  do {
    candidate.assign(base);
    candidate += '.';
    candidate += std::to_string(n++);
  } while (index_.contains(candidate));
  return add(candidate);
}

SymbolId SymbolTable::add(std::string_view name) {
  SymbolId id = static_cast<SymbolId>(names_.size());
  names_.emplace_back(name);
  index_.emplace(names_.back(), id);
  return id;
}

const std::string& SymbolTable::name(SymbolId id) const {
  assert(id < names_.size());
  return names_[id];
}

SymbolId SymbolTable::lookup(std::string_view name) const {
  auto it = index_.find(name);
  return it == index_.end() ? kInvalidSymbol : it->second;
}

}  // namespace sspar::sym
