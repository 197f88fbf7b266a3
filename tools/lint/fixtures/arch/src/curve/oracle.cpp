// Fixture: the oracle's own .cpp, which does not count as a user.
#include "curve/oracle.hpp"

int slow_reference(int x) { return x; }
