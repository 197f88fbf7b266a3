// Fixture: a header nothing includes -> test-only-src (dead code).
#pragma once

inline int unused_helper(int x) { return x + 1; }
