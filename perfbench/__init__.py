"""The repository's end-to-end benchmark (see BENCHMARK.json and NOTES.md)."""
