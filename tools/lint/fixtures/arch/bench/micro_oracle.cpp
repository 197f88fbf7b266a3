// Fixture: bench/ includes count as test-only too.
#include "curve/oracle.hpp"
