// Fixture: an oracle only tests/ and bench/ include -> test-only-src.
#pragma once

int slow_reference(int x);
