package steghide

// ReadFileChunk exposes readFileChunk to the package's external tests.
const ReadFileChunk = readFileChunk
