//go:build !unix || nommap

package mmapio

const wantMapped = false
