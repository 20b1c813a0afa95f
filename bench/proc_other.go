//go:build !linux

package main

import "syscall"

// childAttr has no parent-death signal to offer outside Linux; children
// are stopped by killChildren on every exit path the process sees.
func childAttr() *syscall.SysProcAttr { return nil }
