// Fixture: tests include it, but so does examples/demo.cpp -> clean.
#pragma once

inline int twice(int x) { return 2 * x; }
